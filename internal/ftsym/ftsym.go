// Package ftsym extends the paper's fault-tolerance methodology to the
// symmetric tridiagonal reduction DSYTRD — the first item of the paper's
// future work ("provide soft error resilience for the rest of the hybrid
// two-sided factorizations").
//
// The Hessenberg paper's O(N) detector compares the total of a maintained
// checksum row against a maintained checksum column. That shortcut is
// provably blind for the symmetric kernel: the row and column checksums
// of a symmetric matrix are maintained through *identical* intermediates
// (eᵀV and Vᵀe are the same vector), so their totals never diverge.
// Instead, this package maintains one checksum vector over the active
// trailing block,
//
//	c(i) = Σ_{j≥p} A(i, j)   (mathematical row sums, symmetry-expanded),
//
// updates it through each blocked iteration with the retained panel
// factors (c' = c − V·(Wᵀe) − W·(Vᵀe), matching the trailing update
// A' = A − V·Wᵀ − W·Vᵀ), and detects by comparing freshly computed block
// row sums against the maintained vector — an O(n²)-per-iteration check
// that amortizes to ≈ 3/(4·nb) of the reduction's 4/3·N³ flops.
//
// The recovery pipeline is the paper's, unchanged: reverse the trailing
// update with the retained V and W (a sign flip of the same SYR2K),
// restore the panel from the diskless checkpoint, locate the error from
// the checksum residuals (a symmetric single-element error flags exactly
// the two rows i₀ and j₀ with equal residuals — and, unlike the
// Hessenberg detector, a diagonal error is locatable too), correct, and
// re-execute the iteration.
//
// The checksums ride the one hybrid DSYTRD schedule as a guard
// (hybrid.SymGuard on hybrid.ReduceSym), so D, E, Tau and the reflectors
// are the baseline's bits. Every step is an existing device operation:
// encode and detect are a SYMV against a ones vector, maintenance is
// GEMVs against the ones vector and the retained factors, the reversal
// is the SYR2K with +1, and a correction is a single-element update. The
// diskless checkpoint is the host copy of the panel that the schedule
// already brings back. The run is modeled like the baseline: a cost-only
// run reports the FT overhead, and journal events carry SimTime.
package ftsym

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

const (
	macheps = 2.220446049250313e-16
	// thresholdFactor scales the detection threshold
	// τ = thresholdFactor·ε·N·‖A‖₁, as ft's default does.
	thresholdFactor = 200
	// maxRecoveries bounds the recovery attempts per iteration.
	maxRecoveries = 3
)

// ErrUncorrectable mirrors ft.ErrUncorrectable for the symmetric path.
var ErrUncorrectable = errors.New("ftsym: detected errors are not correctable")

// ErrRetriesExhausted reports persistent detection on one iteration.
var ErrRetriesExhausted = errors.New("ftsym: recovery retries exhausted")

// Hook lets campaigns inject faults at iteration boundaries.
type Hook interface {
	// BeforeIteration may corrupt w, the device-resident working matrix
	// (rows/cols ≥ panel are active; only the stored lower triangle,
	// row ≥ col, is ever read).
	BeforeIteration(iter, panel int, w *matrix.Matrix)
}

// Options configures the resilient reduction.
type Options struct {
	// Ctx, when non-nil, cancels the reduction: it is checked at every
	// blocked-iteration boundary (including recovery re-executions), so
	// cancellation is observed within one iteration and Reduce returns
	// ctx.Err().
	Ctx context.Context
	// NB is the block size (32 if zero).
	NB int
	// Hook receives iteration-boundary callbacks. Injection needs data,
	// so a cost-only Device rejects it.
	Hook Hook
	// Obs, if set, receives ftsym_* counters (checks, detections,
	// corrections, recoveries, re-executions) and the device's phase and
	// operation timers.
	Obs *obs.Registry
	// Journal, if set, receives typed FT event records stamped with the
	// simulated time.
	Journal *obs.Journal
	// Trace, if set, scopes the run to a served request: the ftsym_*
	// counters gain a job=<id> label and the reduction appears as a
	// wall-clock span on the context's tracer (mirrors ft.Options.Trace).
	Trace *obs.TraceContext
	// Device is the simulated accelerator; nil means a fresh Real-mode
	// K40c.
	Device *gpu.Device
}

// Result carries the tridiagonal factorization and resilience statistics.
type Result struct {
	hybrid.SymResult
	// Detections, Recoveries, Corrected report resilience events.
	Detections int
	Recoveries int
	Corrected  []ft.Injection
	// Reexecutions counts blocked iterations repeated after recovery
	// (equals the ftsym_reexecutions_total counter).
	Reexecutions int
}

// Reduce tridiagonalizes the symmetric matrix a (lower triangle
// referenced, not modified) with transient-error resilience.
func Reduce(a *matrix.Matrix, opt Options) (*Result, error) {
	dev := opt.Device
	if dev == nil {
		dev = gpu.New(sim.K40c(), gpu.Real)
	}
	if opt.Hook != nil && dev.Mode != gpu.Real {
		return nil, errors.New("ftsym: a fault Hook needs a Real-mode device")
	}
	if opt.Obs != nil {
		for _, name := range []string{
			"ftsym_checksum_checks_total", "ftsym_detections_total",
			"ftsym_corrections_total", "ftsym_recoveries_total",
			"ftsym_reexecutions_total",
		} {
			opt.Obs.Counter(name, symLabels(&opt)...)
		}
	}
	sp := opt.Trace.Span("ftsym.reduce", opt.Trace.ParentSpan())
	defer opt.Trace.EndSpan(sp)

	g := &guard{opt: &opt, a: a, res: &Result{}}
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

// symLabels returns the job label set for the run's counters (empty for
// offline runs without a trace context).
func symLabels(opt *Options) []obs.Label {
	if job := opt.Trace.JobID(); job != "" {
		return []obs.Label{obs.L("job", job)}
	}
	return nil
}

// guard is the checksum layer over hybrid.ReduceSym.
type guard struct {
	opt *Options
	a   *matrix.Matrix
	res *Result
	st  hybrid.SymState
	// tauDet is the detection threshold τ.
	tauDet float64
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

// count increments one ftsym counter (no-op without a registry).
func (g *guard) count(name string) {
	g.opt.Obs.Counter(name, symLabels(g.opt)...).Inc()
}

// journal appends one event stamped with the simulated time.
func (g *guard) journal(e obs.Event) {
	e.SimTime = g.st.Dev.Elapsed()
	g.opt.Journal.Append(e)
}

// free releases the guard's device vectors (if Start ran).
func (g *guard) free() {
	for _, m := range []*gpu.Matrix{g.chk, g.ones, g.fresh, g.sums} {
		if m != nil {
			g.st.Dev.Free(m)
		}
	}
}

// Start sets the threshold, uploads the ones vector and encodes the
// checksum over the whole matrix.
func (g *guard) Start(s hybrid.SymState) {
	g.st = s
	dev, n, nb := s.Dev, s.N, s.NB
	g.chk, g.ones, g.fresh, g.sums = dev.Alloc(n, 1), dev.Alloc(n, 1), dev.Alloc(n, 1), dev.Alloc(2*nb, 1)
	g.ckPanel = dev.Mode.HostMatrix(n, nb)
	g.resid = dev.Mode.HostMatrix(n, 1)
	defer dev.SetPhase(dev.SetPhase("encode"))
	norm := 0.0
	ones := dev.Mode.HostMatrix(n, 1)
	dev.HostOp(dev.Params.GemvHost(n, n), func() {
		norm = symNorm1(g.a)
		ones.Fill(1)
	})
	g.tauDet = thresholdFactor * macheps * float64(n) * math.Max(norm, 1)
	dev.H2D(g.ones, 0, 0, ones)
	dev.Symv(blas.Lower, n, 1, s.A, 0, 0, g.ones, 0, 0, 0, g.chk, 0, 0)
}

// Boundary hands the device matrix to the fault hook.
func (g *guard) Boundary(iter, p int) {
	g.attempt = 0
	if h := g.opt.Hook; h != nil {
		a := g.st.A
		h.BeforeIteration(iter, p, matrix.FromColMajor(a.Rows, a.Cols, a.Stride, a.Data))
	}
}

// AfterOffload checkpoints the offloaded panel and takes its columns'
// contribution out of the trailing rows' sums, before the host
// factorization overwrites it.
func (g *guard) AfterOffload(iter, p int) {
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
func (g *guard) panelSums(p int, sign float64) {
	s := g.st
	s.Dev.Gemv(blas.NoTrans, s.N-p-s.NB, s.NB, sign, s.A, p+s.NB, p, g.ones, 0, 0, 1, g.chk, p+s.NB, 0)
}

// rankSums adds sign times V·(Wᵀe) + W·(Vᵀe) to the trailing rows'
// checksums, with Vᵀe and Wᵀe retained in sums.
func (g *guard) rankSums(p int, sign float64) {
	s := g.st
	m, nb := s.N-p-s.NB, s.NB
	s.Dev.Gemv(blas.NoTrans, m, nb, sign, s.A, p+nb, p, g.sums, nb, 0, 1, g.chk, p+nb, 0)
	s.Dev.Gemv(blas.NoTrans, m, nb, sign, s.W, nb, 0, g.sums, 0, 0, 1, g.chk, p+nb, 0)
}

// AfterUpdate carries the checksum through the rank-2k update and checks
// the next window; on a mismatch it reverses the iteration, corrects the
// located error and asks for a re-execution.
func (g *guard) AfterUpdate(iter, p int) (bool, error) {
	s := g.st
	dev, m, nb := s.Dev, s.N-p-s.NB, s.NB
	defer dev.SetPhase(dev.SetPhase("checksum_maintenance"))
	dev.Gemv(blas.Trans, m, nb, 1, s.A, p+nb, p, g.ones, 0, 0, 0, g.sums, 0, 0)
	dev.Gemv(blas.Trans, m, nb, 1, s.W, nb, 0, g.ones, 0, 0, 0, g.sums, nb, 0)
	g.rankSums(p, -1)

	dev.SetPhase("detect")
	rv := g.residuals(p + nb)
	mismatch := false
	dev.HostOp(dev.Params.VecHost(m), func() {
		for _, d := range rv {
			// NaN (e.g. Inf−Inf after an exponent-bit flip overflows the
			// block) compares false against every τ; a non-finite row
			// sum is itself proof of corruption.
			if math.Abs(d) > g.tauDet || math.IsNaN(d) {
				mismatch = true
				return
			}
		}
	})
	g.count("ftsym_checksum_checks_total")
	check := obs.Ev(obs.KindChecksumCheck, iter)
	check.Outcome = "clean"
	if mismatch {
		check.Outcome = "mismatch"
	}
	g.journal(check)
	if !mismatch {
		return false, nil
	}
	g.res.Detections++
	g.count("ftsym_detections_total")
	g.journal(obs.Ev(obs.KindDetection, iter))
	if g.attempt >= maxRecoveries {
		return false, fmt.Errorf("%w (iteration %d)", ErrRetriesExhausted, iter)
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
	if err := g.locateAndCorrect(p, iter); err != nil {
		return false, err
	}
	g.res.Recoveries++
	g.count("ftsym_recoveries_total")
	g.res.Reexecutions++
	g.count("ftsym_reexecutions_total")
	g.journal(obs.Ev(obs.KindReexecution, iter))
	return true, nil
}

// residuals brings home the fresh row sums of the stored block at
// (from, from) minus the maintained checksum, one per row ≥ from (no
// values in a cost-only run).
func (g *guard) residuals(from int) []float64 {
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

// locateAndCorrect finds the corrupted stored element(s) of the restored
// window p from the checksum residuals and repairs them on the device.
// The re-execution offloads the repaired panel and checkpoints it anew,
// once the host has waited for the last correction. Recovery only runs on
// data: a cost-only run never detects.
func (g *guard) locateAndCorrect(p, iter int) error {
	dev := g.st.Dev
	rv := g.residuals(p)
	var rows []int
	for i, d := range rv {
		if math.Abs(d) > g.tauDet {
			rows = append(rows, i)
		}
	}
	loc := obs.Ev(obs.KindLocation, iter)
	loc.Outcome = fmt.Sprintf("%d rows flagged", len(rows))
	g.journal(loc)
	var fixed sim.Event
	apply := func(i, j int, delta float64) {
		fixed = dev.Add(g.st.A, p+i, p+j, -delta)
		g.res.Corrected = append(g.res.Corrected, ft.Injection{Row: p + i, Col: p + j, Delta: delta, Target: ft.TargetH, Iter: iter})
		g.count("ftsym_corrections_total")
		corr := obs.Ev(obs.KindCorrection, iter)
		corr.Row, corr.Col, corr.Value = p+i, p+j, obs.Float(delta)
		g.journal(corr)
	}
	// A diagonal error flags its row once with residual δ; an
	// off-diagonal stored error flags two rows with equal residuals.
	// Greedily pair equal-valued rows; an unpaired row is a diagonal
	// error, and a row with two partners is ambiguous.
	used := make([]bool, len(rows))
	for a := range rows {
		if used[a] {
			continue
		}
		match := -1
		for b := a + 1; b < len(rows); b++ {
			if used[b] || math.Abs(rv[rows[a]]-rv[rows[b]]) > g.tauDet {
				continue
			}
			if match >= 0 {
				return fmt.Errorf("%w: ambiguous residual pairing", ErrUncorrectable)
			}
			match = b
		}
		used[a] = true
		if match < 0 {
			apply(rows[a], rows[a], rv[rows[a]])
			continue
		}
		used[match] = true
		apply(rows[match], rows[a], rv[rows[a]]) // rows[match] > rows[a]: the stored lower triangle
	}
	if len(rows) > 0 {
		dev.Sync(fixed)
	}
	return nil
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
