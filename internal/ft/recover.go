package ft

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/gpu"
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
	r.count("ft_checksum_checks_total")
	ev := obs.Ev(obs.KindChecksumCheck, iter)
	ev.Target = obs.TargetH
	ev.Value = obs.Float(r.lastDetectGap)
	ev.Outcome = "clean"
	if mismatch {
		ev.Outcome = "mismatch"
	}
	r.journal(ev)
	return mismatch
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
	e := r.applyVS(p, ib, +1, sim.Event{})
	e = r.kernChkRowLeft(p, ib, +1, e)

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

// locateAndCorrect recomputes fresh mathematical checksums (Hessenberg-
// aware for the finished columns left of split), compares them with the
// maintained ones, and corrects the flagged elements on the device.
// If patchPanel is set, corrections falling inside the current panel are
// also applied to the host-side checkpoint so the re-execution is clean.
func (r *reducer) locateAndCorrect(iter, split, panel int, patchPanel bool) error {
	dev := r.dev
	n := r.n
	pp := dev.Params

	// Fresh row sums of the mathematical matrix: finished columns
	// contribute only their Hessenberg entries (rows i ≤ j+1); active
	// columns contribute fully.
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

	// Bring the fresh and maintained checksums to the host.
	freshHost := dev.Mode.HostMatrix(n, 2)
	chkColHost := dev.Mode.HostMatrix(n, 1)
	chkRowHost := dev.Mode.HostMatrix(1, n)
	e := dev.D2HAsync(freshHost, dFresh, 0, 0, eR, eC)
	e = dev.D2HAsync(chkColHost, dA, 0, n, e)
	dev.Sync(dev.D2HAsync(chkRowHost, dA, n, 0, e))

	if dev.Mode == gpu.CostOnly {
		// Charge a representative correction kernel; the hook already
		// consumed the injection, so the re-execution will run clean.
		dev.Add(dA, 0, 0, 0)
		loc := obs.Ev(obs.KindLocation, iter)
		loc.Target = obs.TargetH
		loc.Outcome = "cost-only"
		r.journal(loc)
		corr := obs.Ev(obs.KindCorrection, iter)
		corr.Target = obs.TargetH
		corr.Outcome = "cost-only"
		r.journal(corr)
		r.count("ft_corrections_total")
		return nil
	}

	tol := r.tauDet
	var rows, cols []int
	rRes := make([]float64, n)
	cRes := make([]float64, n)
	for i := 0; i < n; i++ {
		rRes[i] = freshHost.At(i, 0) - chkColHost.At(i, 0)
		if math.Abs(rRes[i]) > tol {
			rows = append(rows, i)
		}
	}
	for j := 0; j < n; j++ {
		cRes[j] = freshHost.At(j, 1) - chkRowHost.At(0, j)
		if math.Abs(cRes[j]) > tol {
			cols = append(cols, j)
		}
	}

	loc := obs.Ev(obs.KindLocation, iter)
	loc.Target = obs.TargetH
	loc.Outcome = fmt.Sprintf("%d rows, %d cols flagged", len(rows), len(cols))
	r.journal(loc)

	apply := func(i, j int, delta float64) {
		dev.Add(r.dA, i, j, -delta)
		r.res.CorrectedH = append(r.res.CorrectedH, Injection{Row: i, Col: j, Delta: delta, Target: TargetH, Iter: iter})
		if patchPanel && j >= panel && j < panel+r.nb {
			r.ckPanel.Add(i, j-panel, -delta)
		}
		r.count("ft_corrections_total")
		corr := obs.Ev(obs.KindCorrection, iter)
		corr.Target = obs.TargetH
		corr.Row, corr.Col, corr.Value = i, j, obs.Float(delta)
		r.journal(corr)
	}

	switch {
	case len(rows) == 0 && len(cols) == 0:
		// Threshold-level noise triggered detection but nothing locates:
		// treat as a transient false positive and re-execute.
		return nil
	case len(rows) == 0:
		// The maintained checksum row itself was corrupted: the fresh
		// column sums are the truth.
		for _, j := range cols {
			dev.Set(r.dA, n, j, freshHost.At(j, 1))
		}
		return nil
	case len(cols) == 0:
		// The maintained checksum column was corrupted.
		for _, i := range rows {
			dev.Set(r.dA, i, n, freshHost.At(i, 0))
		}
		return nil
	case len(rows) == 1:
		// All errors share one row: column residuals give each delta.
		for _, j := range cols {
			apply(rows[0], j, cRes[j])
		}
		return nil
	case len(cols) == 1:
		for _, i := range rows {
			apply(i, cols[0], rRes[i])
		}
		return nil
	default:
		// General case: match row residuals to column residuals by value.
		// A unique matching exists exactly when the error positions do
		// not form the rectangle pattern the paper excludes.
		if len(rows) != len(cols) {
			return fmt.Errorf("%w: %d rows vs %d columns flagged", ErrUncorrectable, len(rows), len(cols))
		}
		usedCol := make([]bool, len(cols))
		for _, i := range rows {
			match := -1
			for cj, j := range cols {
				if usedCol[cj] {
					continue
				}
				if math.Abs(rRes[i]-cRes[j]) <= tol {
					if match >= 0 {
						return fmt.Errorf("%w: ambiguous residual match", ErrUncorrectable)
					}
					match = cj
				}
			}
			if match < 0 {
				return fmt.Errorf("%w: unmatched row residual", ErrUncorrectable)
			}
			usedCol[match] = true
			apply(i, cols[match], rRes[i])
		}
		return nil
	}
}

// finalHCheck verifies the whole device-resident matrix (finished columns
// Hessenberg-aware) once after the last blocked iteration — an extension
// beyond the paper catching late errors in already-finished H data. The
// corrected elements are also patched in the host copy.
func (r *reducer) finalHCheck(split int) error {
	before := len(r.res.CorrectedH)
	if err := r.locateAndCorrect(r.res.BlockedIters, split, 0, false); err != nil {
		return err
	}
	if r.dev.Mode != gpu.CostOnly {
		for _, c := range r.res.CorrectedH[before:] {
			if c.Col < split {
				// Finished columns were already transferred to the host;
				// mirror the corrected device value (the host copy may
				// predate or postdate the corruption, the device value
				// after correction is authoritative either way).
				r.hostA.Set(c.Row, c.Col, r.dA.At(c.Row, c.Col))
			}
		}
	}
	return nil
}
