package ft

import (
	"math"

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
// left-update completion event; the totals also wait for the side
// stream's checksum kernels, the other writers of the checksum row. One
// launch computes both totals and one read brings them home.
//
// Under the lookahead schedule the check is optimistic: the totals run at
// the tail of the compute queue and the host charges the verdict's
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
	totals := dev.Totals(r.d.A, 0, n, n, 0, n, &sre, &sce, dataReady, r.chk)
	if r.la {
		// The totals stay on the compute queue (they are its tail: FIFO
		// order puts them right after the remainder update they verify),
		// and the verdict rides back through a device-mapped read on the
		// same stream — the copy engine stays free for the next panel.
		verdict = dev.ReadScalarsTail(2, totals)
	} else {
		dev.ReadScalars(2, totals)
	}

	var mismatch bool
	if dev.Mode == gpu.CostOnly {
		// No data to compare: the injection hook drives the branch so the
		// recovery cost is charged exactly when a fault was injected.
		r.gap = 0
		mismatch = r.opt.Hook != nil && r.opt.Hook.ConsumePendingH() > 0
	} else {
		if r.opt.Hook != nil {
			r.opt.Hook.ConsumePendingH() // keep hook state consistent
		}
		r.gap = math.Abs(sre - sce)
		mismatch = exceeds(r.gap, r.tauDet)
	}
	if mismatch && r.la {
		// Pessimistic path: the host only learns the verdict once the
		// detection read lands, so charge that wait before recovering.
		dev.Sync(verdict)
	}
	return r.checked(iter, r.gap, mismatch)
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
	d := &r.d
	e := dev.LarfbApply(+1, n-k, n-p-ib+1, ib, d.A, k, p, d.A, k, p+ib, d.S, 0, d.W, r.chk)
	e = r.kernChkRowLeft(p, ib, 0, n-p-ib+1, +1, e)

	// Reverse the right update with the retained Y: the forward step at
	// the opposite sign, the checksum column included.
	ei := dev.Mode.HostElem(r.hostA, p+ib, p+ib-1)
	e = dev.Set(d.A, p+ib, p+ib-1, 1, e)
	e = d.RightUpdate(p, ib, 0, 0, n-p-ib, +1, e, sim.Event{})
	e = r.chkColRight(ib, +1, e)
	e = dev.Set(d.A, p+ib, p+ib-1, ei, e)
	r.journal(obs.Ev(obs.KindReverse, iter))

	// Restore the panel columns and their checksum-row segment from the
	// diskless checkpoint (host memory → device), in one transfer.
	dev.Sync(dev.H2DAsync(d.A, 0, p, r.ckPanel.View(0, 0, n+1, ib), e))
	r.journal(obs.Ev(obs.KindCheckpointRestore, iter))

	// Locate and correct (line 15). A correction inside the current
	// panel also patches the checkpoint, so the re-execution is clean.
	b := r.whole(p)
	b.flagged = true
	b.patch = func(i, j int, delta float64) {
		if j >= p && j < p+r.nb {
			r.ckPanel.Add(i, j-p, -delta)
		}
	}
	_, err := r.repair(iter, b)
	return err
}

// whole is the single-device extended matrix as a bordered block,
// Hessenberg-aware left of split, whose kernels wait for the side
// stream's checksum kernels.
func (r *reducer) whole(split int) *bordered {
	last := r.chk
	return &bordered{dev: r.dev, m: r.d.A, n: r.n, cols: r.n, split: split, last: &last, dFresh: r.dFresh}
}

// finalHCheck verifies the whole device-resident matrix (finished columns
// Hessenberg-aware) once after the last blocked iteration — an extension
// beyond the paper catching late errors in already-finished H data. A
// correction is re-checked against fresh residuals before it is trusted;
// a re-check that still mismatches counts as a detection.
func (r *reducer) finalHCheck(split int) error {
	iter := r.res.BlockedIters
	b := r.whole(split)
	b.patch = func(i, j int, _ float64) {
		if j < split {
			// Finished columns were already transferred to the host;
			// mirror the device value (the host copy may predate or
			// postdate the corruption, the device value is authoritative
			// either way).
			r.hostA.Set(i, j, r.d.A.At(i, j))
		}
	}
	return r.heal(iter, b, "final_check", func(fixed int) bool {
		if fixed == 0 {
			return false
		}
		rRes, cRes := b.residuals(&r.recovery, iter)
		r.gap = worst(worst(0, rRes...), cRes...)
		if !r.checked(iter, r.gap, exceeds(r.gap, r.tauDet)) {
			return false
		}
		r.detected(iter, r.gap, "final re-check", "")
		return true
	})
}
