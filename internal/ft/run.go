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

// run is the shell both reducers share around their schedules: the
// options with their defaults, the host-side result under assembly, the
// detection threshold, the Q checksums, and the steps before and after
// the blocked iterations. The single-device reducer and the pool guard
// each embed one; what stays theirs is the device-side state and the
// journal (the single-device reducer stamps its device's name).
type run struct {
	opt   Options
	n, nb int
	// lane is where serial CPU work is charged: the device's host lane
	// or the pool's main-host timeline.
	lane hybrid.HostLane
	pp   sim.Params
	// emit is the reducer's journal.
	emit func(obs.Event)

	hostA *matrix.Matrix
	tau   []float64
	// la mirrors !Options.DisableLookahead, fused Options.Substrate ==
	// SubstrateFused.
	la, fused bool

	normA1 float64
	tauDet float64
	// gap is the checksum gap of the latest check, journaled with its
	// verdict and with a detection.
	gap float64

	qprot *qChecksums
	res   *Result
}

// newRun applies the option defaults, pre-touches the FT counters and
// allocates the host-side result for a reduction of a charged on lane
// with cost parameters pp.
func newRun(a *matrix.Matrix, opt Options, lane hybrid.HostLane, pp sim.Params, fused bool) run {
	nb := opt.NB
	if nb <= 0 {
		nb = hybrid.DefaultNB
	}
	if opt.ThresholdFactor <= 0 {
		opt.ThresholdFactor = 200
	}
	if opt.Obs != nil {
		// A clean run still exposes every counter, at zero.
		for _, name := range ftCounterNames {
			opt.Obs.Counter(name, ftLabels(opt)...)
		}
	}
	n := a.Rows
	mode := lane.Mode()
	hostA := mode.HostCopy(a)
	tau := make([]float64, max(n-1, 1))
	return run{
		opt: opt, n: n, nb: nb, lane: lane, pp: pp,
		hostA: hostA, tau: tau,
		la: !opt.DisableLookahead, fused: fused,
		qprot: newQChecksums(mode, n),
		res:   &Result{Result: hybrid.Result{N: n, NB: nb, Packed: hostA, Tau: tau}},
	}
}

// count increments an FT counter (no-op without a registry).
func (s *run) count(name string) {
	s.opt.Obs.Counter(name, ftLabels(s.opt)...).Inc()
}

// threshold charges the one host pass over A whose ‖A‖₁ anchors the
// detection threshold τ = ThresholdFactor·ε·N·‖A‖₁.
func (s *run) threshold(a *matrix.Matrix) {
	s.lane.SetPhase("setup")
	s.lane.HostOp(s.pp.GemvHost(s.n, s.n), func() {
		s.normA1 = a.Norm1()
	})
	s.tauDet = s.opt.ThresholdFactor * macheps * float64(s.n) * math.Max(s.normA1, 1)
}

// fuse switches the run's devices onto the fused-ABFT substrate (no-op
// under the swept substrate) and returns the collector to defer: it
// folds each device's per-call statistics into the result and switches
// the device back. Running from a defer, the counts survive early error
// returns.
func (s *run) fuse(devs []*gpu.Device) func() {
	if !s.fused {
		return func() {}
	}
	for _, dev := range devs {
		dev.SetSubstrateFused(true)
		dev.ResetFTStats()
	}
	return func() {
		for _, dev := range devs {
			checks, det, _ := dev.FTStats()
			s.res.SubstrateChecks += int(checks)
			s.res.SubstrateDetections += int(det)
			s.opt.Obs.Counter("ft_substrate_checks_total", ftLabels(s.opt)...).Add(float64(checks))
			s.opt.Obs.Counter("ft_substrate_detections_total", ftLabels(s.opt)...).Add(float64(det))
			if det > 0 {
				ev := obs.Ev(obs.KindDetection, s.res.BlockedIters)
				ev.Target = obs.TargetH
				ev.Outcome = "substrate"
				ev.Value = obs.Float(float64(det))
				ev.Device = dev.Name()
				s.emit(ev)
			}
			dev.SetSubstrateFused(false)
		}
	}
}

// checkFused fails the run if the fused substrate saw a non-finite
// checksum total on any of devs: substrate detection is report-only,
// but a NaN or Inf total is never left to propagate silently.
func (s *run) checkFused(devs []*gpu.Device) error {
	if !s.fused {
		return nil
	}
	for _, dev := range devs {
		if _, _, nonFinite := dev.FTStats(); nonFinite {
			where := ""
			if dev.Name() != "" {
				where = " on " + dev.Name()
			}
			return fmt.Errorf("%w: fused substrate observed a non-finite checksum total%s", ErrUncorrectable, where)
		}
	}
	return nil
}

// absorbQ folds panel p's Householder vectors into the Q checksums on
// the otherwise idle CPU (Section IV-E, Figure 5).
func (s *run) absorbQ(p, ib int) {
	if s.opt.DisableQProtection {
		return
	}
	s.lane.SetPhase("q_protect")
	s.qprot.absorbPanel(s.lane, s.pp, s.hostA, p, ib)
}

// verifyQ verifies and repairs the Householder storage of columns
// 0..p-1 once, at the end of the factorization (Section IV-E/F), through
// the shared recovery path. A pass that rewrote data is re-checked by
// the next pass, which also repairs what the first one left.
func (s *run) verifyQ(p int) error {
	if s.opt.DisableQProtection {
		return nil
	}
	s.lane.SetPhase("q_protect")
	s.qprot.limit = min(p, s.qprot.absorbedCols)
	if err := s.heal(s.res.BlockedIters, s.qprot, "q_protect", func(fixed int) bool { return fixed > 0 }); err != nil {
		return fmt.Errorf("Q check: %w", err)
	}
	return nil
}

// rerun re-executes the whole factorization from its input a with opt
// and adds this attempt's counters to the retry's. The hook is dropped:
// neither a transient error nor a device loss re-occurs on redo. Two
// recoveries use it: the post-processing comparator's (Reduce) and the
// restart after a device loss (failstop.go).
func (s *run) rerun(a *matrix.Matrix, opt Options) (*Result, error) {
	opt.Hook = nil
	retry, err := Reduce(a, opt)
	if err != nil {
		return s.res, err
	}
	retry.Detections += s.res.Detections
	retry.Recoveries += s.res.Recoveries
	retry.CorrectedH = append(s.res.CorrectedH, retry.CorrectedH...)
	retry.QCorrections += s.res.QCorrections
	retry.DeviceLosses += s.res.DeviceLosses
	retry.FailStopRecoveries += s.res.FailStopRecoveries
	retry.SubstrateChecks += s.res.SubstrateChecks
	retry.SubstrateDetections += s.res.SubstrateDetections
	return retry, nil
}

// checked counts one checksum comparison of H in iteration iter and
// journals its verdict with the gap that decided it.
func (s *run) checked(iter int, gap float64, mismatch bool) bool {
	s.count("ft_checksum_checks_total")
	ev := obs.Ev(obs.KindChecksumCheck, iter)
	ev.Target = obs.TargetH
	ev.Value = obs.Float(gap)
	ev.Outcome = "clean"
	if mismatch {
		ev.Outcome = "mismatch"
	}
	s.emit(ev)
	return mismatch
}

// detected counts and journals one detection in H.
func (s *run) detected(iter int, gap float64, outcome, device string) {
	s.res.Detections++
	s.count("ft_detections_total")
	det := obs.Ev(obs.KindDetection, iter)
	det.Target = obs.TargetH
	det.Value = obs.Float(gap)
	det.Outcome = outcome
	det.Device = device
	s.emit(det)
}

// corrected records the repair of H element (row, col), off by delta.
func (s *run) corrected(iter, row, col int, delta float64, device string) {
	s.res.CorrectedH = append(s.res.CorrectedH, Injection{Row: row, Col: col, Delta: delta, Target: TargetH, Iter: iter})
	s.count("ft_corrections_total")
	corr := obs.Ev(obs.KindCorrection, iter)
	corr.Target = obs.TargetH
	corr.Row, corr.Col, corr.Value = row, col, obs.Float(delta)
	corr.Device = device
	s.emit(corr)
}

// ftLabels returns the job label set for the run's FT counters (empty
// for offline runs without a trace context).
func ftLabels(opt Options) []obs.Label {
	if job := opt.Trace.JobID(); job != "" {
		return []obs.Label{obs.L("job", job)}
	}
	return nil
}

// ftCounterNames lists every counter the reduction can emit; they are
// pre-touched at run start so a clean run still exposes them at zero.
var ftCounterNames = []string{
	"ft_checksum_checks_total",
	"ft_detections_total",
	"ft_corrections_total",
	"ft_recoveries_total",
	"ft_reexecutions_total",
	"ft_checkpoints_total",
	"ft_q_corrections_total",
	"ft_device_losses_total",
	"ft_failstop_reconstructions_total",
	"ft_substrate_checks_total",
	"ft_substrate_detections_total",
}
