package ft

import (
	"fmt"
	"math"

	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The recovery path every checksum-protected region shares (Algorithm 3,
// line 15; Section IV-E/F for Q): fresh sums → residuals against the
// maintained checksums → the non-finite rule → locate → journal → repair
// writes → re-check, repeated until the region checks clean. As in
// Bosilca et al. ("ABFT Applied to HPC"), the checksum-bordered block is
// the unit of recovery: a bordered block of H in device memory (the
// whole single-device matrix or one pool slab), the host-side
// Householder store (qprotect.go), or the stored trailing block of the
// symmetric reduction (sym.go).

// region is one checksum-protected block as the shared path sees it.
type region interface {
	// residuals recomputes the region's fresh row and column sums and
	// returns them minus the maintained checksum column and row; nil
	// when there is no data to compare (cost-only mode).
	residuals(c *recovery, iter int) (rRes, cRes []float64)
	// locate resolves the residuals into repairs, flagging those above
	// tol. Only finite residuals reach it.
	locate(rRes, cRes []float64, tol float64) (location, error)
	// located journals the location step's outcome.
	located(c *recovery, iter int, loc location)
	// fix writes one located repair, using the last residuals call's
	// fresh sums.
	fix(c *recovery, iter int, f repair)
}

// recovery is the core every region is repaired under: where its host
// work is charged, the detection threshold τ, and the ledger its check,
// detection and correction records go through. The Hessenberg run and
// the symmetric guard each embed one.
type recovery struct {
	// lane and pp charge the host work.
	lane hybrid.HostLane
	pp   sim.Params
	ledger

	tauDet float64
	// gap is the checksum gap of the latest check, journaled with its
	// verdict and with a detection.
	gap float64
}

// setThreshold charges the one host pass over the order-n input whose
// 1-norm, from norm1, anchors the detection threshold
// τ = factor·ε·N·‖A‖₁, the bound a clean checksum gap stays under.
func (c *recovery) setThreshold(factor float64, n int, norm1 func() float64) {
	norm := 0.0
	c.lane.HostOp(c.pp.GemvHost(n, n), func() { norm = norm1() })
	c.tauDet = factor * macheps * float64(n) * math.Max(norm, 1)
}

// checked journals one checksum comparison of H in iteration iter with
// the gap that decided its verdict.
func (c *recovery) checked(iter int, gap float64, mismatch bool) bool {
	verdict := "clean"
	if mismatch {
		verdict = "mismatch"
	}
	c.record(obs.KindChecksumCheck, iter, gap, verdict, "")
	return mismatch
}

// corrected journals the repair of H element (row, col), off by delta.
func (c *recovery) corrected(iter, row, col int, delta float64, device string) {
	corr := obs.Ev(obs.KindCorrection, iter)
	corr.Row, corr.Col, corr.Value = row, col, obs.Float(delta)
	corr.Device = device
	c.emit(corr)
}

// exceeds is the one detection rule for a checksum gap — the difference
// of two totals, or a residual's magnitude: above tol is a mismatch, and
// so is a non-finite gap. An exponent flip can drive a value, and every
// sum it enters, to ±Inf or NaN, where Inf−Inf = NaN compares false
// against every threshold; a clean reduction keeps every checksum finite
// (‖A‖₁ is bounded), so a non-finite gap is itself proof of corruption.
func exceeds(gap, tol float64) bool { return !(gap <= tol) }

// worst folds the magnitudes of vs into gap, the largest so far; a NaN
// sticks.
func worst(gap float64, vs ...float64) float64 {
	for _, v := range vs {
		if a := math.Abs(v); a > gap || math.IsNaN(a) {
			gap = a
		}
	}
	return gap
}

// repair runs the location step on g once and returns the number of
// data elements it rewrote. A residual no finite threshold bounds is
// uncorrectable: no residual arithmetic recovers a value an exponent hit
// drove to ±Inf or NaN.
func (c *recovery) repair(iter int, g region) (int, error) {
	rRes, cRes := g.residuals(c, iter)
	if rRes == nil {
		return 0, nil
	}
	if exceeds(worst(worst(0, rRes...), cRes...), math.MaxFloat64) {
		return 0, fmt.Errorf("%w: non-finite residual", ErrUncorrectable)
	}
	found, err := g.locate(rRes, cRes, c.tauDet)
	g.located(c, iter, found)
	if err != nil {
		return 0, err
	}
	fixed := 0
	for _, f := range found.repairs {
		g.fix(c, iter, f)
		if f.kind == repairData {
			fixed++
		}
	}
	return fixed, nil
}

// heal repairs g under phase, then asks recheck — given the number of
// data elements the repair rewrote — whether g still mismatches, and
// repeats while it does: an exponent flip leaves a delta so large that
// subtracting it cancels the element's true value, and only a second
// pass against the same maintained checksums restores it. After
// maxRecoveries repairs the run fails with ErrDetectionStorm.
func (c *recovery) heal(iter int, g region, phase string, recheck func(fixed int) bool) error {
	for attempt := 1; ; attempt++ {
		prev := c.lane.SetPhase(phase)
		fixed, err := c.repair(iter, g)
		c.lane.SetPhase(prev)
		if err != nil {
			return err
		}
		if !recheck(fixed) {
			return nil
		}
		if attempt >= maxRecoveries {
			return fmt.Errorf("%w (iteration %d)", ErrDetectionStorm, iter)
		}
	}
}

// bordered is one checksum-bordered block of H in device memory: the
// single-device extended matrix or one pool slab. Columns 0..cols-1 of m
// hold the data, n rows each — a column left of split holds finished
// Hessenberg data, rows ≤ j+1, above reflectors it no longer sums — with
// the maintained checksum column (row sums) in column cols and the
// checksum row (column sums) in row n. Local column 0 is global column
// col0.
type bordered struct {
	dev                  *gpu.Device
	m                    *gpu.Matrix
	n, cols, split, col0 int
	// last is the block's last writer: the location and repair kernels
	// queue behind it and advance it. data, if set, is its last data
	// writer, which the data repairs advance too.
	last, data *sim.Event
	// where prefixes the block's location records ("" for the whole
	// matrix).
	where string
	// patch, if set, mirrors a data repair of local (i, j) into a host
	// copy (the single-device diskless checkpoint).
	patch func(i, j int, delta float64)
	// flagged marks a block a detection flagged. A cost-only run has no
	// data to locate with, so it models one representative repair for a
	// flagged block and none for the final check's unflagged pass.
	flagged bool
	// dFresh is device scratch for the fresh sums (n×2 at least; nil: one
	// per call); fresh is their last host copy.
	dFresh *gpu.Matrix
	fresh  *matrix.Matrix
}

// residuals computes the fresh sums on the owning device (two GEMV-class
// kernels) and brings them and the maintained checksums to the host.
func (b *bordered) residuals(s *recovery, iter int) (rRes, cRes []float64) {
	dev, m := b.dev, b.m
	n, cols, split := b.n, b.cols, b.split
	height := func(j int) int {
		if j < split {
			return min(j+2, n)
		}
		return n
	}
	dFresh := b.dFresh
	if dFresh == nil {
		dFresh = dev.Alloc(n, 2)
		defer dev.Free(dFresh)
	}
	s.lane.Issue(dev)
	eR := dev.Custom(dev.Params.GemvDevice(n, cols), func() {
		clear(dFresh.Data[:n])
		for j := 0; j < cols; j++ {
			for i, v := range m.Data[j*m.Stride : j*m.Stride+height(j)] {
				dFresh.Data[i] += v
			}
		}
	}, *b.last)
	eC := dev.Custom(dev.Params.GemvDevice(n, cols), func() {
		for j := 0; j < cols; j++ {
			sum := 0.0
			for _, v := range m.Data[j*m.Stride : j*m.Stride+height(j)] {
				sum += v
			}
			dFresh.Data[dFresh.Stride+j] = sum
		}
	}, eR)
	fresh := dev.Mode.HostMatrix(n, 2)
	chkCol := dev.Mode.HostMatrix(n, 1)
	chkRow := dev.Mode.HostMatrix(1, cols)
	e := dev.D2HAsync(fresh, dFresh, 0, 0, eR, eC)
	e = dev.D2HAsync(chkCol, m, 0, cols, e)
	e = dev.D2HAsync(chkRow, m, n, 0, e)
	*b.last = e
	s.lane.Wait(e)

	if dev.Mode == gpu.CostOnly {
		if b.flagged {
			// The hook already consumed the injection, so the run
			// continues clean after one representative correction kernel.
			b.wroteData(dev.Add(m, 0, 0, 0, *b.last))
			for _, kind := range []obs.Kind{obs.KindLocation, obs.KindCorrection} {
				s.record(kind, iter, 0, "cost-only", dev.Name())
			}
		}
		return nil, nil
	}
	b.fresh = fresh
	rRes = make([]float64, n)
	cRes = make([]float64, cols)
	for i := range rRes {
		rRes[i] = fresh.At(i, 0) - chkCol.At(i, 0)
	}
	for j := range cRes {
		cRes[j] = fresh.At(j, 1) - chkRow.At(0, j)
	}
	return rRes, cRes
}

func (b *bordered) locate(rRes, cRes []float64, tol float64) (location, error) {
	return locate(rRes, cRes, tol)
}

func (b *bordered) located(s *recovery, iter int, loc location) {
	s.record(obs.KindLocation, iter, 0, fmt.Sprintf("%s%d rows, %d cols flagged", b.where, len(loc.rows), len(loc.cols)), b.dev.Name())
}

// wroteData records e, a data repair, as the block's last writer.
func (b *bordered) wroteData(e sim.Event) {
	*b.last = e
	if b.data != nil {
		*b.data = e
	}
}

func (b *bordered) fix(s *recovery, iter int, f repair) {
	switch f.kind {
	case repairChkRow:
		*b.last = b.dev.Set(b.m, b.n, f.col, b.fresh.At(f.col, 1), *b.last)
	case repairChkCol:
		*b.last = b.dev.Set(b.m, f.row, b.cols, b.fresh.At(f.row, 0), *b.last)
	default:
		b.wroteData(b.dev.Add(b.m, f.row, f.col, -f.delta, *b.last))
		if b.patch != nil {
			b.patch(f.row, f.col, f.delta)
		}
		s.corrected(iter, f.row, b.col0+f.col, f.delta, b.dev.Name())
	}
}
