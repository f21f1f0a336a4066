package serve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ledgerRun is one reduction of the ledger sweep, as its four views
// report it.
type ledgerRun struct {
	name   string
	prefix string
	tally  ft.Tally
	err    error
	reg    *obs.Registry
	events []obs.Event
}

// check requires the run's Result, its registry, the fold of its journal
// and serve's reliability summary of that journal to agree in every
// field, and a run that ends well to have recovered once per detection.
// SubstrateChecks has no record, so the journal folds miss it; the
// symmetric path has only the first six counters.
func (r ledgerRun) check(t *testing.T) {
	t.Helper()
	fold := ft.Fold(r.events)
	want := r.tally
	want.SubstrateChecks = 0
	if !reflect.DeepEqual(fold, want) {
		t.Errorf("%s: journal fold %+v, result %+v", r.name, fold, r.tally)
	}
	counters := map[string]int{
		"checksum_checks": r.tally.ChecksumChecks, "detections": r.tally.Detections,
		"corrections": len(r.tally.CorrectedH), "recoveries": r.tally.Recoveries,
		"reexecutions": r.tally.Reexecutions, "checkpoints": r.tally.Checkpoints,
		"q_corrections": r.tally.QCorrections, "device_losses": r.tally.DeviceLosses,
		"failstop_reconstructions": r.tally.FailStopRecoveries,
		"substrate_checks":         r.tally.SubstrateChecks, "substrate_detections": r.tally.SubstrateDetections,
	}
	for name, v := range counters {
		if got := r.reg.CounterValue(r.prefix + "_" + name + "_total"); got != float64(v) {
			t.Errorf("%s: %s_%s_total = %v, result %d", r.name, r.prefix, name, got, v)
		}
	}
	// A record no view counts goes unseen by the comparisons above; a run
	// that survives its detections must have recovered from each.
	if r.err == nil && r.tally.Recoveries != r.tally.Detections {
		t.Errorf("%s: %d detection(s) survived with %d recovery(ies)", r.name, r.tally.Detections, r.tally.Recoveries)
	}
	rel := reliabilityOf(r.events, r.err)
	wantRel := &Reliability{
		ChecksumChecks: r.tally.ChecksumChecks, Detections: r.tally.Detections,
		Corrections: len(r.tally.CorrectedH), QCorrections: r.tally.QCorrections,
		Recoveries: r.tally.Recoveries, Reexecutions: r.tally.Reexecutions,
		SubstrateDetections: r.tally.SubstrateDetections,
		DeviceLosses:        r.tally.DeviceLosses, Reconstructions: r.tally.FailStopRecoveries,
		Uncorrectable: isUncorrectable(r.err),
	}
	if *rel != *wantRel {
		t.Errorf("%s: reliability %+v, result %+v", r.name, *rel, *wantRel)
	}
}

// reduceLedger runs one Hessenberg reduction of a with opt on k pool
// devices (k = 0: one device) in mode, observed by a fresh registry and
// journal; the injector journals its injections too.
func reduceLedger(t *testing.T, name string, a *matrix.Matrix, k int, mode gpu.Mode, opt ft.Options, in *fault.Injector) ledgerRun {
	t.Helper()
	reg, j := obs.NewRegistry(), obs.NewJournal()
	opt.Obs, opt.Journal = reg, j
	if in != nil {
		in.Journal, opt.Hook = j, in
	}
	if k == 0 {
		opt.Device = gpu.New(sim.K40c(), mode)
	}
	for d := 0; d < k; d++ {
		opt.Devices = append(opt.Devices, gpu.NewIndexed(sim.K40c(), mode, d))
	}
	res, err := ft.Reduce(a, opt)
	if res == nil {
		t.Fatalf("%s: no result: %v", name, err)
	}
	return ledgerRun{name: name, prefix: "ft", tally: res.Tally, err: err, reg: reg, events: j.Events()}
}

// symPoke corrupts stored elements of the symmetric reduction's working
// matrix at one iteration boundary, the i-th by (i+1)·delta, or every
// one by delta when equal is set.
type symPoke struct {
	iter  int
	at    [][2]int
	delta float64
	equal bool
}

func (h symPoke) BeforeIteration(iter, _ int, w *matrix.Matrix) {
	if iter == h.iter {
		for i, p := range h.at {
			d := float64(i+1) * h.delta
			if h.equal {
				d = h.delta
			}
			w.Add(p[0], p[1], d)
		}
	}
}

// TestLedgerAgrees is the FT ledger's property test: across faulted runs
// of every path — one device and pools of 1, 2 and 4, Areas 1–3, one and
// three errors, additive and bit-flip, swept and fused substrates, early
// and late iterations, three seeds — plus the symmetric path, fail-stop
// kills, the post-processing comparator and cost-only runs, the Result,
// the FT counters, the journal's fold and the served reliability summary
// agree in every field, whether the run recovers or fails.
func TestLedgerAgrees(t *testing.T) {
	const n, nb = 128, 16
	start := time.Now()
	a := matrix.Random(n, n, 5)
	iters := fault.BlockedIterations(n, nb)
	runs, failed := 0, 0
	check := func(r ledgerRun) {
		runs++
		if r.err != nil {
			failed++
		}
		r.check(t)
	}
	for _, k := range []int{0, 1, 2, 4} {
		for _, area := range []fault.Area{fault.Area1, fault.Area2, fault.Area3} {
			for _, count := range []int{1, 3} {
				for _, flip := range []bool{false, true} {
					for _, substrate := range []string{ft.SubstrateSwept, ft.SubstrateFused} {
						for _, iter := range []int{1, 4} {
							for seed := uint64(1); seed <= 3; seed++ {
								plan := fault.Plan{Area: area, TargetIter: iter, Count: count, Seed: seed, BitFlip: flip, Bit: []uint{45, 52, 62}[seed-1]}
								if plan.Check(n, nb, iters) != nil {
									continue
								}
								name := fmt.Sprintf("k%d/%v/count%d/flip=%v/%s/iter%d/seed%d", k, area, count, flip, substrate, iter, seed)
								check(reduceLedger(t, name, a, k, gpu.Real, ft.Options{NB: nb, Substrate: substrate}, fault.New(plan)))
							}
						}
					}
				}
			}
		}
	}

	// Fail-stop kills: one loss at each point, and a second loss as the
	// restart begins, which fails the run.
	for _, k := range []int{1, 2, 4} {
		for _, point := range []fault.KillPoint{fault.KillBoundary, fault.KillPanel, fault.KillUpdate} {
			kill := fault.Plan{TargetIter: 2, KillPoint: point, KillDevice: k - 1}
			check(reduceLedger(t, fmt.Sprintf("kill/k%d/%s", k, point), a, k, gpu.Real, ft.Options{NB: nb}, fault.New(kill)))
			second := fault.Plan{TargetIter: 2, KillPoint: fault.KillRecovery}
			check(reduceLedger(t, fmt.Sprintf("kill/k%d/%s+recovery", k, point), a, k, gpu.Real, ft.Options{NB: nb}, fault.NewSchedule(kill, second)))
		}
	}

	// The post-processing comparator's rerun, and cost-only runs, whose
	// flagged blocks model one representative repair each.
	for _, area := range []fault.Area{fault.Area1, fault.Area2} {
		plan := fault.Plan{Area: area, TargetIter: 3, Seed: 1}
		check(reduceLedger(t, fmt.Sprintf("postprocess/%v", area), a, 0, gpu.Real, ft.Options{NB: nb, PostProcess: true}, fault.New(plan)))
		for _, k := range []int{0, 2} {
			check(reduceLedger(t, fmt.Sprintf("costonly/k%d/%v", k, area), matrix.Shape(n, n), k, gpu.CostOnly, ft.Options{NB: nb}, fault.New(plan)))
		}
	}

	// The symmetric path: one or two errors, on and off the diagonal,
	// and two equal errors, whose residuals pair ambiguously, so the run
	// fails.
	s := matrix.RandomSymmetric(n, 5)
	for _, hook := range []symPoke{
		{iter: 1, at: [][2]int{{100, 60}}, delta: 2},
		{iter: 1, at: [][2]int{{70, 70}}, delta: 1},
		{iter: 4, at: [][2]int{{120, 90}, {110, 100}}, delta: 3},
		{iter: 4, at: [][2]int{{120, 90}, {110, 100}}, delta: 3, equal: true},
	} {
		reg, j := obs.NewRegistry(), obs.NewJournal()
		res, err := ft.ReduceSym(s, ft.SymOptions{NB: nb, Hook: hook, Obs: reg, Journal: j})
		if res == nil || hook.equal != (err != nil && strings.Contains(err.Error(), "ambiguous residual pairing")) {
			t.Fatalf("sym %+v: result %v, error %v", hook, res != nil, err)
		}
		r := ledgerRun{name: fmt.Sprintf("sym/%+v", hook), prefix: "ftsym", tally: res.Tally, err: err, reg: reg, events: j.Events()}
		if res.Detections == 0 || res.Checkpoints == 0 {
			t.Errorf("%s: the hook did not exercise the path: %+v", r.name, res.Tally)
		}
		check(r)
	}
	t.Logf("%d runs (%d failed) agree in %v", runs, failed, time.Since(start).Round(time.Millisecond))
}
