package ft_test

// End-to-end observability check: one fault-tolerant run with an injected
// error must leave the metrics registry, the event journal, and the
// Result statistics telling the same story.

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestObservabilityEndToEnd(t *testing.T) {
	const n = 256
	a := matrix.Random(n, n, 5)
	reg := obs.NewRegistry()
	jr := obs.NewJournal()
	in := fault.New(fault.Plan{Area: fault.Area1, TargetIter: 2, Seed: 3})
	in.Journal = jr
	res, err := ft.Reduce(a, ft.Options{
		NB: 32, Device: gpu.New(sim.K40c(), gpu.Real),
		Hook: in, Obs: reg, Journal: jr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections != 1 || res.Recoveries != 1 {
		t.Fatalf("expected 1 detection + 1 recovery, got %d/%d", res.Detections, res.Recoveries)
	}

	// The Prometheus exposition must carry the FT counters and the
	// per-phase timers the acceptance criteria name.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"ft_detections_total", "ft_corrections_total", "ft_reexecutions_total",
		"ft_checksum_checks_total", "ft_recoveries_total", "ft_checkpoints_total",
		"phase_seconds_bucket", `phase="panel"`, `phase="right_update"`,
		`phase="left_update"`, `phase="d2h_overlap"`, `phase="detect"`,
		`phase="recovery"`, "op_seconds_total", "sim_makespan_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	// Counters, Result statistics, and journal tallies must agree.
	counts := jr.Counts()
	checks := []struct {
		counter string
		kind    obs.Kind
		result  int
	}{
		{"ft_detections_total", obs.KindDetection, res.Detections},
		{"ft_corrections_total", obs.KindCorrection, len(res.CorrectedH)},
		{"ft_recoveries_total", obs.KindReverse, res.Recoveries},
		{"ft_reexecutions_total", obs.KindReexecution, res.Recoveries},
	}
	for _, c := range checks {
		v := reg.CounterValue(c.counter)
		if int(v) != c.result {
			t.Errorf("%s = %v, Result says %d", c.counter, v, c.result)
		}
		if counts[c.kind] != c.result {
			t.Errorf("journal has %d %s records, Result says %d", counts[c.kind], c.kind, c.result)
		}
	}
	if got := counts[obs.KindInjection]; got != len(in.Log) {
		t.Errorf("journal has %d injections, injector logged %d", got, len(in.Log))
	}

	// Journal records must be ordered by simulated time, and the recovery
	// chain must appear in causal order: detection → location →
	// correction → re-execution.
	events := jr.Events()
	if len(events) == 0 {
		t.Fatal("empty journal")
	}
	last := -1.0
	idx := map[obs.Kind]int{}
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.SimTime < last {
			t.Fatalf("event %d: sim_time %v < previous %v", i, e.SimTime, last)
		}
		last = e.SimTime
		if _, seen := idx[e.Kind]; !seen {
			idx[e.Kind] = i
		}
	}
	chain := []obs.Kind{obs.KindDetection, obs.KindLocation, obs.KindCorrection, obs.KindReexecution}
	for i := 1; i < len(chain); i++ {
		a, aok := idx[chain[i-1]]
		b, bok := idx[chain[i]]
		if !aok || !bok {
			t.Fatalf("journal missing %s or %s", chain[i-1], chain[i])
		}
		if a > b {
			t.Errorf("first %s (seq %d) after first %s (seq %d)", chain[i-1], a, chain[i], b)
		}
	}
}

// TestCostOnlyRepairTallied: a cost-only run has no data to locate a
// flagged block's error with, so it models one representative repair.
// The Result lists that repair at (−1, −1), where the corrections counter
// and the journal's correction record count it, on one device and on a
// pool.
func TestCostOnlyRepairTallied(t *testing.T) {
	for _, k := range []int{0, 2} {
		reg, jr := obs.NewRegistry(), obs.NewJournal()
		opt := ft.Options{NB: 32, Obs: reg, Journal: jr, Hook: fault.New(fault.Plan{Area: fault.Area1, TargetIter: 3})}
		if k == 0 {
			opt.Device = gpu.New(sim.K40c(), gpu.CostOnly)
		}
		for d := 0; d < k; d++ {
			opt.Devices = append(opt.Devices, gpu.NewIndexed(sim.K40c(), gpu.CostOnly, d))
		}
		res, err := ft.Reduce(matrix.Shape(256, 256), opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.CorrectedH) != 1 || res.CorrectedH[0].Row != -1 || res.CorrectedH[0].Col != -1 {
			t.Errorf("K=%d: cost-only corrections %+v, want one at (-1, -1)", k, res.CorrectedH)
		}
		if got := reg.CounterValue("ft_corrections_total"); got != 1 {
			t.Errorf("K=%d: ft_corrections_total = %v, want 1", k, got)
		}
		if got := jr.Counts()[obs.KindCorrection]; got != 1 {
			t.Errorf("K=%d: %d correction record(s), want 1", k, got)
		}
	}
}

// TestSymCheckpointsTallied: every checkpoint the symmetric path
// journals counts in SymResult.Checkpoints and ftsym_checkpoints_total,
// a re-executed iteration's included.
func TestSymCheckpointsTallied(t *testing.T) {
	a := matrix.RandomSymmetric(150, 3)
	clean, err := ft.ReduceSym(a, ft.SymOptions{NB: 32})
	if err != nil {
		t.Fatal(err)
	}
	reg, jr := obs.NewRegistry(), obs.NewJournal()
	hook := symPoke{iter: 1, row: 100, col: 60, delta: 2}
	res, err := ft.ReduceSym(a, ft.SymOptions{NB: 32, Hook: hook, Obs: reg, Journal: jr})
	if err != nil {
		t.Fatal(err)
	}
	saves := jr.Counts()[obs.KindCheckpointSave]
	if res.Reexecutions != 1 || clean.Checkpoints == 0 || saves != clean.Checkpoints+1 {
		t.Fatalf("%d re-execution(s), %d checkpoint record(s), %d in a clean run: want the redone panel checkpointed anew",
			res.Reexecutions, saves, clean.Checkpoints)
	}
	if res.Checkpoints != saves || reg.CounterValue("ftsym_checkpoints_total") != float64(saves) {
		t.Errorf("checkpoints: result %d, ftsym_checkpoints_total %v, journal %d",
			res.Checkpoints, reg.CounterValue("ftsym_checkpoints_total"), saves)
	}
}

// symPoke corrupts one stored element of the symmetric reduction at an
// iteration boundary.
type symPoke struct {
	iter, row, col int
	delta          float64
}

func (h symPoke) BeforeIteration(iter, _ int, w *matrix.Matrix) {
	if iter == h.iter {
		w.Add(h.row, h.col, h.delta)
	}
}
