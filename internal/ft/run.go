package ft

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// run is the shell both Hessenberg reducers share around their
// schedules: the options with their defaults, the host-side result under
// assembly, the recovery core (its lane is the device's host lane or the
// pool's main-host timeline), the Q checksums, and the steps before and
// after the blocked iterations. The single-device reducer and the pool
// guard each embed one; what stays theirs is the device-side state.
type run struct {
	recovery
	opt   Options
	n, nb int

	hostA *matrix.Matrix
	tau   []float64
	// la mirrors !Options.DisableLookahead, fused Options.Substrate ==
	// SubstrateFused.
	la, fused bool

	qprot *qChecksums
	res   *Result
}

// newRun applies the option defaults, allocates the host-side result
// for a reduction of a charged on lane with cost parameters pp, and opens
// its ledger, which pre-touches the FT counters. A rerun's result starts
// from its parent's tally.
func newRun(a *matrix.Matrix, opt Options, lane hybrid.HostLane, pp sim.Params, fused bool) run {
	nb := opt.NB
	if nb <= 0 {
		nb = hybrid.DefaultNB
	}
	if opt.ThresholdFactor <= 0 {
		opt.ThresholdFactor = defaultThresholdFactor
	}
	n := a.Rows
	mode := lane.Mode()
	hostA := mode.HostCopy(a)
	tau := make([]float64, max(n-1, 1))
	res := &Result{Result: hybrid.Result{N: n, NB: nb, Packed: hostA, Tau: tau}}
	if opt.tally != nil {
		res.Tally = *opt.tally
	}
	return run{
		recovery: recovery{lane: lane, pp: pp,
			ledger: newLedger(lane.Elapsed, &res.Tally, opt.Journal, opt.Obs, opt.Trace, "ft", ftCounters)},
		opt: opt, n: n, nb: nb,
		hostA: hostA, tau: tau,
		la: !opt.DisableLookahead, fused: fused,
		qprot: newQChecksums(mode, hostA),
		res:   res,
	}
}

// threshold sets τ from the input a in the setup phase.
func (s *run) threshold(a *matrix.Matrix) {
	s.lane.SetPhase("setup")
	s.setThreshold(s.opt.ThresholdFactor, s.n, a.Norm1)
}

// fuse switches the run's devices onto the fused-ABFT substrate (no-op
// under the swept substrate) and returns the collector to defer: it
// hands each device's per-call statistics to the ledger and switches
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
			s.substrate(checks, det, s.res.BlockedIters, dev.Name())
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
	s.qprot.absorbPanel(s.lane, s.pp, p, ib)
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
	err := s.heal(s.res.BlockedIters, s.qprot, "q_protect", func(fixed int) bool { return fixed > 0 })
	if err != nil {
		return fmt.Errorf("Q check: %w", err)
	}
	return nil
}

// rerun re-executes the whole factorization from its input a with opt,
// counting into this attempt's tally. The hook is dropped: neither a
// transient error nor a device loss re-occurs on redo. Two recoveries
// use it: the post-processing comparator's (Reduce) and the restart
// after a device loss (failstop.go).
func (s *run) rerun(a *matrix.Matrix, opt Options) (*Result, error) {
	opt.Hook = nil
	opt.tally = &s.res.Tally
	return Reduce(a, opt)
}
