package campaign

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// testSweep is a small grid that still exercises multiple cells, regions,
// and enough trials to inject errors.
func testSweep(workers int, sink *bytes.Buffer) *Sweep {
	s := &Sweep{
		Ns:            []int{96, 126},
		NBs:           []int{16},
		Lambdas:       []float64{0.5, 1.5},
		Regions:       []fault.Region{fault.RegionAll, fault.RegionQ},
		TrialsPerCell: 4,
		Seed:          9,
		Workers:       workers,
	}
	if sink != nil {
		s.TrialSink = sink
	}
	return s
}

func runSweepOrFatal(t *testing.T, s *Sweep) (*SweepReport, string) {
	t.Helper()
	rep, err := RunSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	rep.Print(&b)
	var bench bytes.Buffer
	if err := rep.WriteBenchJSON(&bench); err != nil {
		t.Fatal(err)
	}
	return rep, b.String() + "\x00" + bench.String()
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	var j1, j4 bytes.Buffer
	_, out1 := runSweepOrFatal(t, testSweep(1, &j1))
	rep4, out4 := runSweepOrFatal(t, testSweep(4, &j4))

	if j1.String() != j4.String() {
		t.Fatalf("JSONL differs between -workers 1 and -workers 4:\n%s\n---\n%s", j1.String(), j4.String())
	}
	if out1 != out4 {
		t.Fatalf("aggregate report differs between worker counts:\n%s\n---\n%s", out1, out4)
	}
	if rep4.TotalTrials != 8*4 {
		t.Fatalf("expected 32 trials, got %d", rep4.TotalTrials)
	}
	if rep4.Outcome(SilentCorrupt) != 0 {
		t.Fatalf("silent corruption in test sweep: %+v", rep4.ByName)
	}
	if rep4.Injections == 0 {
		t.Fatal("sweep injected nothing")
	}
}

func TestSweepResumeFromPrefix(t *testing.T) {
	var full bytes.Buffer
	runSweepOrFatal(t, testSweep(2, &full))
	lines := strings.SplitAfter(full.String(), "\n")
	lines = lines[:len(lines)-1] // drop the empty tail
	if len(lines) != 32 {
		t.Fatalf("expected 32 JSONL lines, got %d", len(lines))
	}

	// Restart from the first 10 lines plus a truncated 11th (as an
	// interrupted run would leave behind).
	partial := strings.Join(lines[:10], "") + lines[10][:len(lines[10])/2]
	resume, err := LoadTrialJSONL(strings.NewReader(partial))
	if err != nil {
		t.Fatal(err)
	}
	if len(resume) != 10 {
		t.Fatalf("resume loaded %d records, want 10 (truncated line skipped)", len(resume))
	}

	var appended bytes.Buffer
	s := testSweep(3, &appended)
	s.Resume = resume
	runSweepOrFatal(t, s)
	got := strings.Join(lines[:10], "") + appended.String()
	if got != full.String() {
		t.Fatalf("resumed run did not complete the stream:\n%q\nwant\n%q", got, full.String())
	}
}

func TestSweepResumeGridMismatch(t *testing.T) {
	var full bytes.Buffer
	runSweepOrFatal(t, testSweep(1, &full))
	resume, err := LoadTrialJSONL(strings.NewReader(full.String()))
	if err != nil {
		t.Fatal(err)
	}
	s := testSweep(1, nil)
	s.Ns = []int{96, 158} // different grid: records no longer line up
	s.Resume = resume
	if _, err := RunSweep(s); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("grid mismatch not rejected: %v", err)
	}
}

func TestSweepObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := testSweep(2, nil)
	s.Obs = reg
	rep, err := RunSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for o := CleanPass; o <= Uncorrectable; o++ {
		total += reg.CounterValue("campaign_trials_total", obs.L("outcome", o.String()))
	}
	if int(total) != rep.TotalTrials {
		t.Fatalf("campaign_trials_total %v != %d trials", total, rep.TotalTrials)
	}
	if reg.CounterValue("campaign_injections_total") != float64(rep.Injections) {
		t.Fatal("campaign_injections_total mismatch")
	}
	if reg.CounterValue("campaign_cells_total") != 8 {
		t.Fatalf("campaign_cells_total = %v", reg.CounterValue("campaign_cells_total"))
	}
	if reg.GaugeValue("campaign_seconds") <= 0 {
		t.Fatal("campaign_seconds not set")
	}
}

func TestSweepOverheadAndCoverage(t *testing.T) {
	s := &Sweep{
		Ns: []int{126}, NBs: []int{16}, Lambdas: []float64{1.5},
		TrialsPerCell: 12, Seed: 4, Workers: 2,
	}
	rep, err := RunSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0]
	if c.BaselineSimSeconds <= 0 {
		t.Fatal("no clean baseline recorded")
	}
	if c.FaultedTrials == 0 {
		t.Fatal("λ=1.5 over 12 trials injected nothing")
	}
	if c.Coverage < 0 || c.Coverage > 1 {
		t.Fatalf("coverage %v out of range", c.Coverage)
	}
	// Faulted runs carry recovery work, so their mean simulated time must
	// be at or above the clean baseline whenever recoveries happened.
	if c.Recoveries > 0 && c.MeanFaultedSimSeconds < c.BaselineSimSeconds {
		t.Fatalf("mean faulted %v < baseline %v despite %d recoveries",
			c.MeanFaultedSimSeconds, c.BaselineSimSeconds, c.Recoveries)
	}
}

func TestSweepScheduleAxis(t *testing.T) {
	// Two single-cell sweeps with the same seed, differing only in the
	// schedule, run identical fault plans (trial seeds depend on the cell
	// index, 0 in both). The lookahead schedule is bit-identical to the
	// serial one, so every coverage-bearing field must match exactly —
	// only the modeled time moves.
	base := func(sched string, sink *bytes.Buffer) *Sweep {
		return &Sweep{
			Ns: []int{126}, NBs: []int{16}, Lambdas: []float64{1.5},
			DeviceCounts: []int{2}, Schedules: []string{sched},
			TrialsPerCell: 6, Seed: 13, Workers: 2, TrialSink: sink,
		}
	}
	var laSink, serSink bytes.Buffer
	la, err := RunSweep(base(ScheduleLookahead, &laSink))
	if err != nil {
		t.Fatal(err)
	}
	ser, err := RunSweep(base(ScheduleSerial, &serSink))
	if err != nil {
		t.Fatal(err)
	}
	cl, cs := la.Cells[0], ser.Cells[0]
	if cl.ByName["silent-corrupt"] != 0 || cs.ByName["silent-corrupt"] != 0 {
		t.Fatalf("silent corruption: lookahead %v, serial %v", cl.ByName, cs.ByName)
	}
	if cl.Coverage != cs.Coverage || cl.Detections != cs.Detections ||
		cl.Recoveries != cs.Recoveries || cl.WorstResidual != cs.WorstResidual ||
		!mapsEqual(cl.ByName, cs.ByName) {
		t.Fatalf("detection coverage moved with the schedule:\nlookahead %+v\nserial    %+v", cl, cs)
	}
	if cl.FaultedTrials == 0 || cl.Detections == 0 {
		t.Fatal("schedule-axis sweep exercised no faults")
	}
	// At this tiny order the lookahead's extra kernel launches outweigh
	// the hidden panel (the win needs N in the thousands — see
	// BENCH_lookahead.json), so only assert the schedules were measured
	// against their own baselines, not which one is faster.
	if cl.BaselineSimSeconds == cs.BaselineSimSeconds {
		t.Fatalf("lookahead and serial cells share a baseline (%.4fs); want per-schedule baselines",
			cl.BaselineSimSeconds)
	}

	// Resume compatibility: lookahead trials serialize without the
	// no_lookahead field — exactly like pre-schedule-axis records — so
	// old JSONL resumes a default-schedule sweep in full, and is
	// rejected (not silently reused) against a serial grid.
	if strings.Contains(laSink.String(), "no_lookahead") {
		t.Fatal("default-schedule records carry no_lookahead; old JSONL would stop resuming")
	}
	if !strings.Contains(serSink.String(), `"no_lookahead":true`) {
		t.Fatal("serial records do not carry no_lookahead")
	}
	resume, err := LoadTrialJSONL(strings.NewReader(laSink.String()))
	if err != nil {
		t.Fatal(err)
	}
	var appended bytes.Buffer
	s := base(ScheduleLookahead, &appended)
	s.Resume = resume
	if _, err := RunSweep(s); err != nil {
		t.Fatal(err)
	}
	if appended.Len() != 0 {
		t.Fatalf("fully recorded sweep re-emitted %d bytes on resume", appended.Len())
	}
	s = base(ScheduleSerial, nil)
	s.Resume = resume
	if _, err := RunSweep(s); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("lookahead records resumed into a serial grid: %v", err)
	}
}

func mapsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestTriageCapturesJournal(t *testing.T) {
	s := testSweep(1, nil)
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
	cells := s.cells()
	cell := cells[0]
	// Fabricate a "failed" record for trial 2 and triage it: the re-run
	// must replay the same seed and capture the FT event journal.
	res := s.runTrial(cell, 2, s.matrixFor(cell.N), nil)
	repro := s.triage(cell, res.record)
	if repro.Seed != res.record.Seed {
		t.Fatalf("triage seed %d != trial seed %d", repro.Seed, res.record.Seed)
	}
	if repro.Rerun != res.record.Outcome {
		t.Fatalf("triage re-run outcome %q != original %q (determinism broken)", repro.Rerun, res.record.Outcome)
	}
	if len(repro.Events) == 0 {
		t.Fatal("triage captured no FT events")
	}
	if len(res.record.Plans) > 0 {
		found := false
		for _, e := range repro.Events {
			if e.Kind == obs.KindInjection {
				found = true
			}
		}
		if !found {
			t.Fatal("journal has no injection events despite planned errors")
		}
	}
}

func TestSweepValidation(t *testing.T) {
	bad := []*Sweep{
		{},
		{Ns: []int{126}},
		{Ns: []int{-1}, TrialsPerCell: 1},
		{Ns: []int{126}, TrialsPerCell: 1, Lambdas: []float64{-2}},
		{Ns: []int{126}, TrialsPerCell: 1, BitRanges: [][2]uint{{40, 20}}},
		{Ns: []int{126}, TrialsPerCell: 1, BitRanges: [][2]uint{{20, 64}}},
	}
	for i, s := range bad {
		if _, err := s.Run(); err == nil {
			t.Fatalf("invalid sweep %d accepted", i)
		}
	}
}

func TestSweepDeviceAxis(t *testing.T) {
	// The devices axis runs the same fault grid on the legacy schedule and
	// on a 2-device pool: every cell must still detect and recover, the
	// pooled cells carry their device count through the JSONL records, and
	// the overhead baselines are computed per substrate.
	var sink bytes.Buffer
	s := &Sweep{
		Ns:            []int{126},
		NBs:           []int{16},
		Lambdas:       []float64{1.5},
		DeviceCounts:  []int{0, 2},
		TrialsPerCell: 3,
		Seed:          11,
		Workers:       2,
		TrialSink:     &sink,
	}
	rep, err := RunSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("expected 2 cells (devices 0 and 2), got %d", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Outcome(SilentCorrupt) > 0 {
			t.Fatalf("devices=%d: silent corruption", c.Cell.Devices)
		}
		if c.FaultedTrials > 0 && c.Coverage == 0 {
			t.Fatalf("devices=%d: no detection on faulted trials", c.Cell.Devices)
		}
		if c.BaselineSimSeconds <= 0 {
			t.Fatalf("devices=%d: missing clean baseline", c.Cell.Devices)
		}
	}
	// The two substrates have different schedules (at this tiny order the
	// pool's broadcasts outweigh the sharding win), so each cell must have
	// been measured against its own baseline, not a shared one.
	if k2, k0 := rep.Cells[1].BaselineSimSeconds, rep.Cells[0].BaselineSimSeconds; k2 == k0 {
		t.Fatalf("devices=0 and devices=2 share a baseline (%.4fs); want per-substrate baselines", k0)
	}
	recs, err := LoadTrialJSONL(&sink)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, r := range recs {
		seen[r.Devices]++
	}
	if seen[0] != 3 || seen[2] != 3 {
		t.Fatalf("JSONL device counts: %v", seen)
	}
}

func TestSweepKillRateAxis(t *testing.T) {
	// The kill-rate axis: at rate 1 every trial loses a device. On a
	// 3-device pool the restart on the survivors must turn each loss into
	// a Recovered trial (never silent corruption); on the single-device
	// substrate the same loss is always fatal and must be reported
	// uncorrectable. The sampled kill coordinates ride the JSONL records.
	var sink bytes.Buffer
	s := &Sweep{
		Ns:            []int{126},
		NBs:           []int{16},
		Lambdas:       []float64{0.5},
		DeviceCounts:  []int{0, 3},
		KillRates:     []float64{0, 1},
		TrialsPerCell: 3,
		Seed:          13,
		Workers:       2,
		TrialSink:     &sink,
	}
	rep, err := RunSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("expected 4 cells (devices × kill rate), got %d", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Outcome(SilentCorrupt) > 0 {
			t.Fatalf("devices=%d kill_rate=%g: silent corruption", c.Cell.Devices, c.Cell.KillRate)
		}
		switch {
		case c.Cell.KillRate == 0:
			if c.DeviceLosses != 0 || c.FailStopRecoveries != 0 {
				t.Fatalf("kill_rate=0 cell saw losses: %+v", c)
			}
		case c.Cell.Devices == 0:
			// Single device: every killed trial dies loudly.
			if c.Outcome(Uncorrectable) != c.Trials {
				t.Fatalf("devices=0 kill_rate=1: %d/%d uncorrectable", c.Outcome(Uncorrectable), c.Trials)
			}
		default:
			// Pool: every loss restarted, every trial recovered.
			if c.DeviceLosses != c.Trials || c.FailStopRecoveries != c.Trials {
				t.Fatalf("devices=3 kill_rate=1: losses=%d restarts=%d over %d trials",
					c.DeviceLosses, c.FailStopRecoveries, c.Trials)
			}
			if c.Outcome(Recovered) != c.Trials {
				t.Fatalf("devices=3 kill_rate=1: %d/%d trials recovered", c.Outcome(Recovered), c.Trials)
			}
			if c.Coverage != 1 {
				t.Fatalf("devices=3 kill_rate=1: coverage %.2f, want 1", c.Coverage)
			}
		}
	}
	recs, err := LoadTrialJSONL(&sink)
	if err != nil {
		t.Fatal(err)
	}
	killed := 0
	for _, r := range recs {
		if r.KillRate == 1 && r.Devices == 3 {
			if r.KillPoint == "" {
				t.Fatalf("killed trial lost its kill coordinates: %+v", r)
			}
			if r.KillDevice < 0 || r.KillDevice >= 3 {
				t.Fatalf("kill device %d out of pool range", r.KillDevice)
			}
			killed++
		}
	}
	if killed != 3 {
		t.Fatalf("JSONL kill records: %d, want 3", killed)
	}
}

// The substrate is part of a cell: records of a fused sweep must not
// resume a swept one.
func TestSweepResumeSubstrateMismatch(t *testing.T) {
	sweep := func(substrate string, sink *bytes.Buffer) *Sweep {
		s := &Sweep{
			Ns: []int{96}, NBs: []int{16}, Lambdas: []float64{1},
			DeviceCounts: []int{2}, Substrates: []string{substrate},
			TrialsPerCell: 2, Seed: 9, Workers: 1,
		}
		if sink != nil {
			s.TrialSink = sink
		}
		return s
	}
	var fused bytes.Buffer
	runSweepOrFatal(t, sweep("fused", &fused))
	resume, err := LoadTrialJSONL(strings.NewReader(fused.String()))
	if err != nil {
		t.Fatal(err)
	}
	s := sweep("swept", nil)
	s.Resume = resume
	if _, err := RunSweep(s); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("fused records resumed a swept sweep: %v", err)
	}
}
