package ft

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// detectAt runs Algorithm 3's lines 12-13: sum the checksum column and the
// checksum row on the device and compare the totals against the threshold.
// Both totals estimate the grand sum of the mathematical matrix; a data
// corruption during the iteration leaves an asymmetric footprint in the
// maintained checksums and the totals diverge. iter identifies the blocked
// iteration for the event journal. dataReady is the iteration's
// left-update completion event, the last writer of both checksums.
//
// Under the lookahead schedule the check is optimistic: the totals run on
// the device's lookahead stream and the host charges the verdict's
// round-trip only when a mismatch actually fires — a clean boundary never
// blocks the next panel's factorization. The comparison itself still
// happens here, in program order, before the next iteration consumes
// anything, so the detection boundary (and every recovery decision) is
// identical to the serialized schedule.
func (r *reducer) detectAt(iter int, dataReady sim.Event) bool {
	dev := r.dev
	n := r.n
	prevPhase := dev.SetPhase("detect")
	defer dev.SetPhase(prevPhase)
	var sre, sce float64
	var verdict sim.Event
	if r.la {
		// The totals stay on the compute queue (they are its tail: FIFO
		// order puts them right after the remainder update they verify),
		// and the verdict rides back through device-mapped reads on the
		// same stream — the copy engine stays free for the next panel.
		e1 := dev.Sum(r.dA, 0, n, n, &sre, dataReady)
		r1 := dev.ReadScalarTail(e1)
		e2 := dev.SumRow(r.dA, n, 0, n, &sce, dataReady)
		verdict = dev.ReadScalarTail(e2, r1)
	} else {
		e1 := dev.Sum(r.dA, 0, n, n, &sre)
		dev.ReadScalar(e1)
		e2 := dev.SumRow(r.dA, n, 0, n, &sce)
		dev.ReadScalar(e2)
	}

	var mismatch bool
	if dev.Mode == gpu.CostOnly {
		// No data to compare: the injection hook drives the branch so the
		// recovery cost is charged exactly when a fault was injected.
		r.lastDetectGap = 0
		mismatch = r.opt.Hook != nil && r.opt.Hook.ConsumePendingH() > 0
	} else {
		if r.opt.Hook != nil {
			r.opt.Hook.ConsumePendingH() // keep hook state consistent
		}
		r.lastDetectGap = math.Abs(sre - sce)
		mismatch = r.lastDetectGap > r.tauDet
		// Overflow blindness: a flip landing in the exponent can drive a
		// value — and with it both running totals — to ±Inf or NaN, where
		// Inf−Inf = NaN compares false against every τ. A clean reduction
		// keeps both totals finite (‖A‖₁ is bounded), so a non-finite
		// total is itself proof of corruption.
		if math.IsNaN(r.lastDetectGap) || math.IsInf(sre, 0) || math.IsInf(sce, 0) {
			mismatch = true
		}
	}
	if mismatch && r.la {
		// Pessimistic path: the host only learns the verdict once the
		// detection read lands, so charge that wait before recovering.
		dev.Sync(verdict)
	}
	return r.checked(iter, r.lastDetectGap, mismatch)
}

// recover implements lines 14-15: reverse the left and right updates with
// the retained intermediates (S, Y, V, T), restore the panel from the
// diskless checkpoint, then locate and correct the error(s). The caller
// re-executes the iteration afterwards.
func (r *reducer) recover(iter, p, ib int) error {
	dev := r.dev
	n, k := r.n, p+1
	prevPhase := dev.SetPhase("recovery")
	defer dev.SetPhase(prevPhase)

	// Reverse the left update: C += V·Sᵀ and the checksum row gets the
	// opposite Vce correction; the checksum column rides along as an
	// extra column of C exactly as in the forward direction.
	e := r.applyVS(p, ib, 0, n-p-ib+1, +1, sim.Event{})
	e = r.kernChkRowLeft(p, ib, 0, n-p-ib+1, +1, e)

	// Reverse the right update with the retained Y (sign-flipped GEMMs).
	ei := dev.Mode.HostElem(r.hostA, p+ib, p+ib-1)
	e = dev.Set(r.dA, p+ib, p+ib-1, 1, e)
	e = dev.Gemm(blas.NoTrans, blas.Trans, k, n-p-ib, ib, +1, r.dY, 0, 0, r.dA, p+ib, p, 1, r.dA, 0, p+ib, e)
	e = dev.Gemm(blas.NoTrans, blas.Trans, n+1-k, n-p-ib, ib, +1, r.dY, k, 0, r.dA, p+ib, p, 1, r.dA, k, p+ib, e)
	e = dev.Gemv(blas.NoTrans, n, ib, +1, r.dY, 0, 0, r.dVsum, 0, 0, 1, r.dA, 0, n, e)
	e = dev.Set(r.dA, p+ib, p+ib-1, ei, e)
	rev := obs.Ev(obs.KindReverse, iter)
	rev.Target = obs.TargetH
	r.journal(rev)

	// Restore the panel columns and their checksum-row segment from the
	// diskless checkpoint (host memory → device).
	up := dev.H2DAsync(r.dA, 0, p, r.ckPanel.View(0, 0, n, ib), e)
	up = dev.H2DAsync(r.dA, n, p, r.ckChkRow.View(0, 0, 1, ib), up)
	dev.Sync(up)
	ck := obs.Ev(obs.KindCheckpointRestore, iter)
	ck.Target = obs.TargetH
	r.journal(ck)

	// Locate and correct (line 15).
	return r.locateAndCorrect(iter, p, p, true)
}

// freshResiduals recomputes the mathematical row and column sums on the
// device (finished columns left of split contribute only their
// Hessenberg entries, rows i ≤ j+1; active columns contribute fully),
// brings them and the maintained checksums to the host, and returns the
// fresh sums (n×2: row sums, column sums) with the row and column
// residuals, fresh minus maintained. The residuals are nil in cost-only
// mode, where no data exists to compare.
func (r *reducer) freshResiduals(split int) (fresh *matrix.Matrix, rRes, cRes []float64) {
	dev := r.dev
	n := r.n
	pp := dev.Params
	dA, dFresh := r.dA, r.dFresh
	eR := dev.Custom(pp.GemvDevice(n, n), func() {
		for i := 0; i < n; i++ {
			dFresh.Data[i] = 0
		}
		for j := 0; j < n; j++ {
			top := n - 1
			if j < split {
				top = min(j+1, n-1)
			}
			for i := 0; i <= top; i++ {
				dFresh.Data[i] += dA.At(i, j)
			}
		}
	})
	eC := dev.Custom(pp.GemvDevice(n, n), func() {
		for j := 0; j < n; j++ {
			top := n - 1
			if j < split {
				top = min(j+1, n-1)
			}
			s := 0.0
			for i := 0; i <= top; i++ {
				s += dA.At(i, j)
			}
			dFresh.Data[dFresh.Stride+j] = s
		}
	})

	fresh = dev.Mode.HostMatrix(n, 2)
	chkColHost := dev.Mode.HostMatrix(n, 1)
	chkRowHost := dev.Mode.HostMatrix(1, n)
	e := dev.D2HAsync(fresh, dFresh, 0, 0, eR, eC)
	e = dev.D2HAsync(chkColHost, dA, 0, n, e)
	dev.Sync(dev.D2HAsync(chkRowHost, dA, n, 0, e))
	if dev.Mode == gpu.CostOnly {
		return fresh, nil, nil
	}
	rRes = make([]float64, n)
	cRes = make([]float64, n)
	for i := range rRes {
		rRes[i] = fresh.At(i, 0) - chkColHost.At(i, 0)
	}
	for j := range cRes {
		cRes[j] = fresh.At(j, 1) - chkRowHost.At(0, j)
	}
	return fresh, rRes, cRes
}

// locateAndCorrect compares fresh checksums (Hessenberg-aware left of
// split) with the maintained ones and corrects the located elements on
// the device. If patchPanel is set, corrections falling inside the
// current panel are also applied to the host-side checkpoint so the
// re-execution is clean.
func (r *reducer) locateAndCorrect(iter, split, panel int, patchPanel bool) error {
	dev := r.dev
	n := r.n
	fresh, rRes, cRes := r.freshResiduals(split)

	if dev.Mode == gpu.CostOnly {
		// Charge a representative correction kernel; the hook already
		// consumed the injection, so the re-execution will run clean.
		dev.Add(r.dA, 0, 0, 0)
		r.correctedCostOnly(iter, "")
		return nil
	}

	found, err := locate(rRes, cRes, r.tauDet)
	loc := obs.Ev(obs.KindLocation, iter)
	loc.Target = obs.TargetH
	loc.Outcome = fmt.Sprintf("%d rows, %d cols flagged", len(found.rows), len(found.cols))
	r.journal(loc)
	if err != nil {
		return err
	}
	for _, f := range found.repairs {
		switch f.kind {
		case repairChkRow:
			dev.Set(r.dA, n, f.col, fresh.At(f.col, 1))
		case repairChkCol:
			dev.Set(r.dA, f.row, n, fresh.At(f.row, 0))
		default:
			i, j := f.row, f.col
			dev.Add(r.dA, i, j, -f.delta)
			if patchPanel && j >= panel && j < panel+r.nb {
				r.ckPanel.Add(i, j-panel, -f.delta)
			}
			r.corrected(iter, i, j, f.delta, "")
		}
	}
	return nil
}

// finalHCheck verifies the whole device-resident matrix (finished columns
// Hessenberg-aware) once after the last blocked iteration — an extension
// beyond the paper catching late errors in already-finished H data.
//
// A correction is re-checked before it is trusted, as the pool's slab
// recovery does: an exponent flip leaves a delta so large that
// subtracting it cancels the element's true value, and only a second
// location pass — against the same maintained checksums — restores it.
// A re-check that still mismatches counts as a detection; after
// maxRecoveries of them the run fails with ErrDetectionStorm. Only
// verified values reach the host copy of the finished columns.
func (r *reducer) finalHCheck(split int) error {
	iter := r.res.BlockedIters
	before := len(r.res.CorrectedH)
	for attempt := 0; ; attempt++ {
		corrected := len(r.res.CorrectedH)
		if err := r.locateAndCorrect(iter, split, 0, false); err != nil {
			return err
		}
		if len(r.res.CorrectedH) == corrected || !r.recheck(iter, split) {
			break
		}
		r.detected(iter, r.lastDetectGap, "final re-check", "")
		if attempt+1 >= maxRecoveries {
			return fmt.Errorf("%w (final H check)", ErrDetectionStorm)
		}
	}
	for _, c := range r.res.CorrectedH[before:] {
		if c.Col < split {
			// Finished columns were already transferred to the host;
			// mirror the verified device value (the host copy may predate
			// or postdate the corruption, the device value is
			// authoritative either way).
			r.hostA.Set(c.Row, c.Col, r.dA.At(c.Row, c.Col))
		}
	}
	return nil
}

// recheck re-runs the fresh-versus-maintained comparison after a
// correction and reports whether any residual still exceeds τ (or is
// non-finite). The largest residual lands in lastDetectGap.
func (r *reducer) recheck(iter, split int) bool {
	_, rRes, cRes := r.freshResiduals(split)
	gap := 0.0
	for _, v := range append(rRes, cRes...) {
		if a := math.Abs(v); a > gap || math.IsNaN(a) {
			gap = a
		}
	}
	r.lastDetectGap = gap
	return r.checked(iter, gap, gap > r.tauDet || math.IsNaN(gap) || math.IsInf(gap, 0))
}
