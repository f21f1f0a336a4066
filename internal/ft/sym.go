package ft

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// FT-DSYTRD: the paper's methodology on the symmetric tridiagonal
// reduction, the first item of its future work ("the rest of the hybrid
// two-sided factorizations").
//
// The Hessenberg detector's O(N) shortcut, the checksum-row total
// against the checksum-column total, is provably blind here: a symmetric
// matrix maintains both through identical intermediates (eᵀV = (Vᵀe)ᵀ),
// so the totals never diverge. The guard instead maintains one checksum
// vector over the active trailing block, c(i) = Σ_{j≥p} A(i, j)
// (symmetry-expanded row sums), carries it through each rank-2k update
// with the retained factors (c' = c − V·(Wᵀe) − W·(Vᵀe)), and detects by
// comparing fresh block row sums against it: an O(n²) check per
// iteration, ≈ 3/(4·nb) of the reduction's 4/3·N³ flops.
//
// On a mismatch it reverses the update (the same SYR2K with +1),
// restores the panel from the diskless checkpoint (the host copy the
// schedule already brings back), repairs the stored block through the
// shared path (repair.go), and re-executes the iteration, which is the
// re-check. Location is the one step the block supplies itself: a
// single off-diagonal error flags the two rows i₀ and j₀ with equal
// residuals, and a diagonal error, unlike in the Hessenberg detector,
// flags one. The guard rides the one hybrid DSYTRD schedule
// (hybrid.SymGuard), so D, E, Tau and the reflectors are the baseline's
// bits, and every step is a modeled device operation. An error whose
// whole footprint lies inside the nb×nb panel triangle (host-resident
// data) is outside the detector's window.

// SymHook lets campaigns inject faults at the symmetric reduction's
// iteration boundaries.
type SymHook interface {
	// BeforeIteration may corrupt w, the device-resident working matrix
	// (rows/cols ≥ panel are active; only the stored lower triangle,
	// row ≥ col, is ever read).
	BeforeIteration(iter, panel int, w *matrix.Matrix)
}

// SymOptions configures the resilient symmetric reduction.
type SymOptions struct {
	// Ctx, when non-nil, is checked at every blocked-iteration boundary
	// (re-executions included); ReduceSym then returns ctx.Err().
	Ctx context.Context
	// NB is the block size (32 if zero).
	NB int
	// Hook receives iteration-boundary callbacks. Injection needs data,
	// so a cost-only Device rejects it.
	Hook SymHook
	// Obs, if set, receives the ftsym_* counters and the device's phase
	// and operation timers; Journal the typed FT event records.
	Obs     *obs.Registry
	Journal *obs.Journal
	// Trace scopes the run to a served request (as Options.Trace).
	Trace *obs.TraceContext
	// Device is the simulated accelerator; nil means a fresh Real-mode
	// K40c.
	Device *gpu.Device
}

// SymResult carries the tridiagonal factorization and resilience
// statistics.
type SymResult struct {
	hybrid.SymResult
	// Detections, Recoveries, Corrected report resilience events.
	Detections int
	Recoveries int
	Corrected  []Injection
	// Reexecutions counts blocked iterations repeated after recovery
	// (equals the ftsym_reexecutions_total counter).
	Reexecutions int
}

// ReduceSym tridiagonalizes the symmetric matrix a (lower triangle
// referenced, not modified) with transient-error resilience.
func ReduceSym(a *matrix.Matrix, opt SymOptions) (*SymResult, error) {
	dev := opt.Device
	if dev == nil {
		dev = gpu.New(sim.K40c(), gpu.Real)
	}
	if opt.Hook != nil && dev.Mode != gpu.Real {
		return nil, errors.New("ft: a symmetric fault hook needs a Real-mode device")
	}
	g := &symGuard{
		recovery: newRecovery(hybrid.DeviceLane(dev), dev.Params, opt.Obs, opt.Trace, "ftsym", ftCounters[:5]...),
		opt:      &opt, a: a, res: &SymResult{},
	}
	g.emit = g.journal
	g.detections, g.fixes = &g.res.Detections, &g.res.Corrected
	sp := opt.Trace.Span("ftsym.reduce", opt.Trace.ParentSpan())
	defer opt.Trace.EndSpan(sp)

	defer g.free()
	hres, err := hybrid.ReduceSym(a, hybrid.Options{
		Ctx: opt.Ctx, NB: opt.NB, Device: dev, Obs: opt.Obs, Trace: opt.Trace,
	}, g)
	if err != nil {
		return nil, err
	}
	g.res.SymResult = *hres
	return g.res, nil
}

// symGuard is the checksum layer over hybrid.ReduceSym.
type symGuard struct {
	recovery
	opt *SymOptions
	a   *matrix.Matrix
	res *SymResult
	st  hybrid.SymState
	// Device vectors: chk is the maintained checksum (indexed globally),
	// ones the all-ones vector, fresh the residual scratch, and sums
	// holds Vᵀe (rows 0..nb-1) and Wᵀe (rows nb..2nb-1), retained for
	// the reversal.
	chk, ones, fresh, sums *gpu.Matrix
	// ckPanel is the diskless checkpoint; resid receives residuals.
	ckPanel, resid *matrix.Matrix
	// attempt counts recoveries of the current iteration.
	attempt int
}

// journal appends one event stamped with the simulated time. Every
// event concerns the device matrix, the symmetric path's one target.
func (g *symGuard) journal(e obs.Event) {
	e.SimTime = g.st.Dev.Elapsed()
	e.Target = obs.TargetH
	g.opt.Journal.Append(e)
}

// free releases the guard's device vectors (if Start ran).
func (g *symGuard) free() {
	for _, m := range []*gpu.Matrix{g.chk, g.ones, g.fresh, g.sums} {
		if m != nil {
			g.st.Dev.Free(m)
		}
	}
}

// Start sets the threshold, uploads the ones vector and encodes the
// checksum over the whole matrix.
func (g *symGuard) Start(s hybrid.SymState) {
	g.st = s
	dev, n, nb := s.Dev, s.N, s.NB
	g.chk, g.ones, g.fresh, g.sums = dev.Alloc(n, 1), dev.Alloc(n, 1), dev.Alloc(n, 1), dev.Alloc(2*nb, 1)
	g.ckPanel = dev.Mode.HostMatrix(n, nb)
	g.resid = dev.Mode.HostMatrix(n, 1)
	defer dev.SetPhase(dev.SetPhase("encode"))
	ones := dev.Mode.HostMatrix(n, 1)
	g.setThreshold(defaultThresholdFactor, n, func() float64 {
		ones.Fill(1)
		return symNorm1(g.a)
	})
	dev.H2D(g.ones, 0, 0, ones)
	dev.Symv(blas.Lower, n, 1, s.A, 0, 0, g.ones, 0, 0, 0, g.chk, 0, 0)
}

// Boundary hands the device matrix to the fault hook.
func (g *symGuard) Boundary(iter, p int) {
	g.attempt = 0
	if h := g.opt.Hook; h != nil {
		a := g.st.A
		h.BeforeIteration(iter, p, matrix.FromColMajor(a.Rows, a.Cols, a.Stride, a.Data))
	}
}

// AfterOffload checkpoints the offloaded panel and takes its columns'
// contribution out of the trailing rows' sums, before the host
// factorization overwrites it.
func (g *symGuard) AfterOffload(iter, p int) {
	s := g.st
	dev, np, nb := s.Dev, s.N-p, s.NB
	defer dev.SetPhase(dev.SetPhase("checkpoint"))
	ck := g.ckPanel.View(0, 0, np, nb)
	dev.HostOp(dev.Params.VecHost(np*nb), func() {
		ck.CopyFrom(s.HostA.View(p, p, np, nb))
	})
	g.journal(obs.Ev(obs.KindCheckpointSave, iter))
	dev.SetPhase("checksum_maintenance")
	g.panelSums(p, -1)
}

// panelSums adds sign times the panel's row sums to the trailing rows'
// checksums.
func (g *symGuard) panelSums(p int, sign float64) {
	s := g.st
	s.Dev.Gemv(blas.NoTrans, s.N-p-s.NB, s.NB, sign, s.A, p+s.NB, p, g.ones, 0, 0, 1, g.chk, p+s.NB, 0)
}

// rankSums adds sign times V·(Wᵀe) + W·(Vᵀe) to the trailing rows'
// checksums, with Vᵀe and Wᵀe retained in sums.
func (g *symGuard) rankSums(p int, sign float64) {
	s := g.st
	m, nb := s.N-p-s.NB, s.NB
	s.Dev.Gemv(blas.NoTrans, m, nb, sign, s.A, p+nb, p, g.sums, nb, 0, 1, g.chk, p+nb, 0)
	s.Dev.Gemv(blas.NoTrans, m, nb, sign, s.W, nb, 0, g.sums, 0, 0, 1, g.chk, p+nb, 0)
}

// AfterUpdate carries the checksum through the rank-2k update and checks
// the next window; on a mismatch it reverses the iteration, repairs the
// restored block through the shared path and asks for a re-execution.
func (g *symGuard) AfterUpdate(iter, p int) (bool, error) {
	s := g.st
	dev, m, nb := s.Dev, s.N-p-s.NB, s.NB
	defer dev.SetPhase(dev.SetPhase("checksum_maintenance"))
	dev.Gemv(blas.Trans, m, nb, 1, s.A, p+nb, p, g.ones, 0, 0, 0, g.sums, 0, 0)
	dev.Gemv(blas.Trans, m, nb, 1, s.W, nb, 0, g.ones, 0, 0, 0, g.sums, nb, 0)
	g.rankSums(p, -1)

	dev.SetPhase("detect")
	rv := g.rowResiduals(p + nb)
	g.gap = 0
	dev.HostOp(dev.Params.VecHost(m), func() { g.gap = worst(0, rv...) })
	if !g.checked(iter, g.gap, exceeds(g.gap, g.tauDet)) {
		return false, nil
	}
	g.detected(iter, g.gap, "", "")
	if g.attempt >= maxRecoveries {
		return false, fmt.Errorf("%w (iteration %d)", ErrDetectionStorm, iter)
	}
	g.attempt++

	// Reverse: the same GEMVs and SYR2K, sign-flipped, then the panel
	// from the checkpoint, whose row sums re-enter the checksum.
	dev.SetPhase("recovery")
	g.rankSums(p, +1)
	rev := dev.Syr2k(blas.Lower, m, nb, 1, s.A, p+nb, p, s.W, nb, 0, 1, s.A, p+nb, p+nb)
	g.journal(obs.Ev(obs.KindReverse, iter))
	// The restore overwrites the V the reversal reads.
	dev.Sync(dev.H2DAsync(s.A, p, p, g.ckPanel.View(0, 0, s.N-p, nb), rev))
	g.panelSums(p, +1)
	g.journal(obs.Ev(obs.KindCheckpointRestore, iter))
	// The re-execution offloads the repaired panel and checkpoints it
	// anew, once the host has waited for the last correction.
	b := &symBlock{g: g, p: p}
	fixed, err := g.repair(iter, b)
	if err != nil {
		return false, err
	}
	if fixed > 0 {
		dev.Sync(b.last)
	}
	g.res.Recoveries++
	g.count("ftsym_recoveries_total")
	g.res.Reexecutions++
	g.count("ftsym_reexecutions_total")
	g.journal(obs.Ev(obs.KindReexecution, iter))
	return true, nil
}

// rowResiduals brings home the fresh row sums of the stored block at
// (from, from) minus the maintained checksum, one per row ≥ from (nil in
// a cost-only run).
func (g *symGuard) rowResiduals(from int) []float64 {
	s := g.st
	dev, k := s.Dev, s.N-from
	dev.CopyBlock(g.fresh, 0, 0, g.chk, from, 0, k, 1)
	e := dev.Symv(blas.Lower, k, 1, s.A, from, from, g.ones, 0, 0, -1, g.fresh, 0, 0)
	rv := g.resid.View(0, 0, k, 1)
	dev.Sync(dev.D2HAsync(rv, g.fresh, 0, 0, e))
	if rv.Data == nil {
		return nil
	}
	return rv.Col(0)
}

// symBlock is the restored stored block at (p, p) as a region of the
// shared recovery path. Its residuals are row residuals only: the block
// is symmetric, so its column sums are its row sums. Recovery only runs
// on data: a cost-only run never detects.
type symBlock struct {
	g *symGuard
	p int
	// last is the last correction's completion.
	last sim.Event
}

func (b *symBlock) residuals(*recovery, int) (rRes, cRes []float64) {
	return b.g.rowResiduals(b.p), nil
}

// locate pairs the flagged rows. A diagonal error flags its row once
// with residual δ; an off-diagonal stored error flags two rows with
// equal residuals. Equal-valued rows pair greedily; an unpaired row is a
// diagonal error, and a row with two partners is ambiguous.
func (b *symBlock) locate(rv, _ []float64, tol float64) (location, error) {
	loc := location{rows: flagged(rv, tol)}
	rows := loc.rows
	fix := func(i, j int) {
		loc.repairs = append(loc.repairs, repair{kind: repairData, row: i, col: j, delta: rv[j]})
	}
	used := make([]bool, len(rows))
	for a := range rows {
		if used[a] {
			continue
		}
		match := -1
		for c := a + 1; c < len(rows); c++ {
			if used[c] || math.Abs(rv[rows[a]]-rv[rows[c]]) > tol {
				continue
			}
			if match >= 0 {
				return location{rows: rows}, fmt.Errorf("%w: ambiguous residual pairing", ErrUncorrectable)
			}
			match = c
		}
		used[a] = true
		if match < 0 {
			fix(rows[a], rows[a])
			continue
		}
		used[match] = true
		fix(rows[match], rows[a]) // rows[match] > rows[a]: the stored lower triangle
	}
	return loc, nil
}

func (b *symBlock) located(c *recovery, iter int, loc location) {
	ev := obs.Ev(obs.KindLocation, iter)
	ev.Outcome = fmt.Sprintf("%d rows flagged", len(loc.rows))
	c.emit(ev)
}

func (b *symBlock) fix(c *recovery, iter int, f repair) {
	b.last = b.g.st.Dev.Add(b.g.st.A, b.p+f.row, b.p+f.col, -f.delta)
	c.corrected(iter, b.p+f.row, b.p+f.col, f.delta, "")
}

// symNorm1 returns the 1-norm of the symmetric matrix stored in the lower
// triangle of a.
func symNorm1(a *matrix.Matrix) float64 {
	n := a.Rows
	sums := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			v := math.Abs(a.At(i, j))
			sums[j] += v
			if i != j {
				sums[i] += v
			}
		}
	}
	m := 0.0
	for _, s := range sums {
		if s > m {
			m = s
		}
	}
	return m
}
