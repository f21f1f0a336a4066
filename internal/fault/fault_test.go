package fault

import (
	"math"
	"testing"

	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

func newDev() *gpu.Device { return gpu.New(sim.K40c(), gpu.Real) }

func TestBlockedIterations(t *testing.T) {
	// Mirrors the hybrid loop: count via an actual run.
	for _, tc := range []struct{ n, nb int }{{100, 16}, {158, 32}, {64, 16}, {40, 8}} {
		a := matrix.Random(tc.n, tc.n, 1)
		res, err := hybrid.Reduce(a, hybrid.Options{NB: tc.nb, Device: newDev()})
		if err != nil {
			t.Fatal(err)
		}
		if want := BlockedIterations(tc.n, tc.nb); want != res.BlockedIters {
			t.Fatalf("n=%d nb=%d: BlockedIterations=%d, actual=%d", tc.n, tc.nb, want, res.BlockedIters)
		}
	}
}

func TestIterForMoment(t *testing.T) {
	n, nb := 158, 32
	total := BlockedIterations(n, nb)
	if total < 2 {
		t.Fatalf("test needs ≥2 iterations, got %d", total)
	}
	if it := IterForMoment(n, nb, Beginning, Area1); it != 0 {
		t.Fatalf("Beginning A1 = %d", it)
	}
	if it := IterForMoment(n, nb, Beginning, Area3); it != 1 {
		t.Fatalf("Beginning A3 = %d (needs a finished panel)", it)
	}
	if it := IterForMoment(n, nb, End, Area2); it != total-1 {
		t.Fatalf("End = %d, want %d", it, total-1)
	}
	if it := IterForMoment(n, nb, Middle, Area2); it != total/2 {
		t.Fatalf("Middle = %d", it)
	}
}

func TestPositionsRespectAreas(t *testing.T) {
	n, nb, p := 200, 32, 64
	k := p + 1
	for _, area := range []Area{Area1, Area2, Area3} {
		in := New(Plan{Area: area, Count: 3, Seed: 7})
		for _, pos := range positions(in.plans[0], n, p, nb) {
			switch area {
			case Area1:
				if pos.Row >= k || pos.Col < p {
					t.Fatalf("Area1 position out of region: %+v", pos)
				}
			case Area2:
				if pos.Row < k || pos.Col < p {
					t.Fatalf("Area2 position out of region: %+v", pos)
				}
			case Area3:
				if pos.Col >= p || pos.Row < pos.Col+2 {
					t.Fatalf("Area3 position out of region: %+v", pos)
				}
			}
			if pos.Row == pos.Col {
				t.Fatalf("diagonal position sampled: %+v", pos)
			}
		}
	}
}

func TestPositionsDistinctRowsCols(t *testing.T) {
	in := New(Plan{Area: Area2, Count: 5, Seed: 3})
	pts := positions(in.plans[0], 300, 32, 32)
	rows := map[int]bool{}
	cols := map[int]bool{}
	for _, p := range pts {
		if rows[p.Row] || cols[p.Col] {
			t.Fatalf("duplicate row/col in %+v", pts)
		}
		rows[p.Row] = true
		cols[p.Col] = true
	}
}

func TestArea3NeedsFinishedPanel(t *testing.T) {
	in := New(Plan{Area: Area3, Count: 1, Seed: 1})
	if pts := positions(in.plans[0], 100, 0, 16); pts != nil {
		t.Fatalf("Area3 at panel 0 must yield no positions, got %+v", pts)
	}
}

func TestHybridInjectionPropagation(t *testing.T) {
	// The Figure 2 mechanism: inject into the baseline and check the
	// corrupted result differs from the clean one.
	n, nb := 158, 32
	a := matrix.Random(n, n, 158)
	clean, err := hybrid.Reduce(a, hybrid.Options{NB: nb, Device: newDev()})
	if err != nil {
		t.Fatal(err)
	}
	in := New(Plan{Area: Area2, TargetIter: 1, Positions: []Pos{{Row: 63, Col: 127}}, Delta: 1})
	dev := newDev()
	dirty, err := hybrid.Reduce(a, hybrid.Options{NB: nb, Device: dev, BeforeIteration: in.HybridHook(dev)})
	if err != nil {
		t.Fatal(err)
	}
	st := matrix.Diff(clean.Packed, dirty.Packed, 1e-10)
	if st.Polluted < 100 {
		t.Fatalf("Area2 error should pollute widely, got %d elements", st.Polluted)
	}
	if len(in.Log) != 1 || in.Log[0].Row != 63 || in.Log[0].Col != 127 {
		t.Fatalf("injection log wrong: %+v", in.Log)
	}
}

func TestHybridArea3SingleElement(t *testing.T) {
	// Area 3 (finished Householder storage): the error must stay a single
	// element in the packed result, the paper's Figure 2(b).
	n, nb := 158, 32
	a := matrix.Random(n, n, 158)
	clean, err := hybrid.Reduce(a, hybrid.Options{NB: nb, Device: newDev()})
	if err != nil {
		t.Fatal(err)
	}
	in := New(Plan{Area: Area3, TargetIter: 1, Positions: []Pos{{Row: 53, Col: 16}}, Delta: 1})
	dev := newDev()
	dirty, err := hybrid.Reduce(a, hybrid.Options{NB: nb, Device: dev, BeforeIteration: in.HybridHook(dev)})
	if err != nil {
		t.Fatal(err)
	}
	st := matrix.Diff(clean.Packed, dirty.Packed, 1e-10)
	if st.Polluted != 1 {
		t.Fatalf("Area3 error should stay a single element, got %d", st.Polluted)
	}
	if st.PollutedRows[0] != 53 || st.PollutedCols[0] != 16 {
		t.Fatalf("polluted at (%d,%d), want (53,16)", st.PollutedRows[0], st.PollutedCols[0])
	}
}

func TestFTRecoversInjectedError(t *testing.T) {
	n, nb := 158, 32
	a := matrix.Random(n, n, 158)
	for _, area := range []Area{Area1, Area2} {
		in := New(Plan{Area: area, TargetIter: 1, Seed: 5, Delta: 1})
		res, err := ft.Reduce(a, ft.Options{NB: nb, Device: newDev(), Hook: in})
		if err != nil {
			t.Fatalf("%v: %v", area, err)
		}
		if res.Detections == 0 {
			t.Fatalf("%v: error not detected", area)
		}
		if res.Recoveries == 0 {
			t.Fatalf("%v: no recovery performed", area)
		}
		h := res.H()
		q := res.Q()
		if r := lapack.FactorizationResidual(a, q, h); r > 1e-13 {
			t.Fatalf("%v: residual after recovery %v", area, r)
		}
		if r := lapack.OrthogonalityResidual(q); r > 1e-13 {
			t.Fatalf("%v: orthogonality after recovery %v", area, r)
		}
	}
}

func TestFTRecoversArea3(t *testing.T) {
	n, nb := 158, 32
	a := matrix.Random(n, n, 9)
	in := New(Plan{Area: Area3, TargetIter: 2, Seed: 11, Delta: 1})
	res, err := ft.Reduce(a, ft.Options{NB: nb, Device: newDev(), Hook: in})
	if err != nil {
		t.Fatal(err)
	}
	if res.QCorrections == 0 {
		t.Fatal("Area3 error not corrected by the Q check")
	}
	// Area-3 errors must not trigger the per-iteration H detection.
	if res.Detections != 0 {
		t.Fatalf("Area3 error should not fire H detection, got %d", res.Detections)
	}
	h := res.H()
	q := res.Q()
	if r := lapack.OrthogonalityResidual(q); r > 1e-12 {
		t.Fatalf("orthogonality %v", r)
	}
	if r := lapack.FactorizationResidual(a, q, h); r > 1e-12 {
		t.Fatalf("residual %v", r)
	}
}

func TestFTRecoversBitFlip(t *testing.T) {
	n, nb := 126, 16
	a := matrix.Random(n, n, 3)
	in := New(Plan{Area: Area2, TargetIter: 1, Seed: 2, BitFlip: true, Bit: 61})
	res, err := ft.Reduce(a, ft.Options{NB: nb, Device: newDev(), Hook: in})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections == 0 {
		t.Fatal("bit flip not detected")
	}
	if r := lapack.FactorizationResidual(a, res.Q(), res.H()); r > 1e-13 {
		t.Fatalf("residual after bit-flip recovery %v", r)
	}
}

func TestFTRecoversMultipleSimultaneousErrors(t *testing.T) {
	// The paper's key claim beyond prior work: more than one simultaneous
	// error is correctable as long as positions do not form a rectangle.
	n, nb := 158, 32
	a := matrix.Random(n, n, 21)
	in := New(Plan{Area: Area2, TargetIter: 1, Count: 3, Seed: 13, Delta: 2})
	res, err := ft.Reduce(a, ft.Options{NB: nb, Device: newDev(), Hook: in})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CorrectedH) != 3 {
		t.Fatalf("corrected %d elements, want 3 (log: %+v)", len(res.CorrectedH), in.Log)
	}
	if r := lapack.FactorizationResidual(a, res.Q(), res.H()); r > 1e-13 {
		t.Fatalf("residual after multi-error recovery %v", r)
	}
}

func TestFTResultMatchesCleanRun(t *testing.T) {
	// After recovery the factorization must equal the fault-free one to
	// rounding (the recovery is exact, not approximate).
	n, nb := 126, 16
	a := matrix.Random(n, n, 31)
	clean, err := ft.Reduce(a, ft.Options{NB: nb, Device: newDev()})
	if err != nil {
		t.Fatal(err)
	}
	in := New(Plan{Area: Area2, TargetIter: 2, Seed: 17, Delta: 1})
	dirty, err := ft.Reduce(a, ft.Options{NB: nb, Device: newDev(), Hook: in})
	if err != nil {
		t.Fatal(err)
	}
	if d := clean.Packed.Sub(dirty.Packed).MaxAbs(); d > 1e-9 {
		t.Fatalf("recovered result differs from clean run by %v", d)
	}
}

func TestFTCostOnlyChargesRecovery(t *testing.T) {
	// In cost-only mode the recovery path must still be charged: a run
	// with an injected fault takes longer than one without.
	n, nb := 256, 32
	a := matrix.New(n, n)
	clean, err := ft.Reduce(a, ft.Options{NB: nb, Device: gpu.New(sim.K40c(), gpu.CostOnly)})
	if err != nil {
		t.Fatal(err)
	}
	in := New(Plan{Area: Area2, TargetIter: 1, Seed: 1})
	dirty, err := ft.Reduce(a, ft.Options{NB: nb, Device: gpu.New(sim.K40c(), gpu.CostOnly), Hook: in})
	if err != nil {
		t.Fatal(err)
	}
	if dirty.Detections != 1 {
		t.Fatalf("cost-only detection count %d", dirty.Detections)
	}
	if !(dirty.SimSeconds > clean.SimSeconds) {
		t.Fatalf("recovery not charged: %v vs %v", dirty.SimSeconds, clean.SimSeconds)
	}
	if math.IsNaN(dirty.ModelGFLOPS) || dirty.ModelGFLOPS <= 0 {
		t.Fatalf("bad GFLOPS %v", dirty.ModelGFLOPS)
	}
}

func TestFTRecoversConsecutiveErrors(t *testing.T) {
	// The paper: "Once the algorithm has corrected the simultaneous
	// errors, it continues as normal and is ready to detect and correct
	// subsequent soft errors as they occur." Inject at three different
	// iterations; every one must be detected and repaired independently.
	n, nb := 190, 32
	a := matrix.Random(n, n, 44)
	in := NewSchedule(
		Plan{Area: Area2, TargetIter: 0, Seed: 1, Delta: 1.5},
		Plan{Area: Area1, TargetIter: 2, Seed: 2, Delta: 2.5},
		Plan{Area: Area2, TargetIter: 3, Seed: 3, Delta: 0.5},
	)
	res, err := ft.Reduce(a, ft.Options{NB: nb, Device: newDev(), Hook: in})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections != 3 {
		t.Fatalf("detections = %d, want 3", res.Detections)
	}
	if res.Recoveries != 3 {
		t.Fatalf("recoveries = %d, want 3", res.Recoveries)
	}
	if len(res.CorrectedH) != 3 {
		t.Fatalf("corrected %d elements, want 3", len(res.CorrectedH))
	}
	if r := lapack.FactorizationResidual(a, res.Q(), res.H()); r > 1e-13 {
		t.Fatalf("residual after consecutive recoveries %v", r)
	}
	if r := lapack.OrthogonalityResidual(res.Q()); r > 1e-13 {
		t.Fatalf("orthogonality %v", r)
	}
}

func TestFTConsecutiveMixedAreas(t *testing.T) {
	// Consecutive H-area and Q-area errors in one run.
	n, nb := 158, 32
	a := matrix.Random(n, n, 12)
	in := NewSchedule(
		Plan{Area: Area2, TargetIter: 1, Seed: 5},
		Plan{Area: Area3, TargetIter: 3, Seed: 6},
	)
	res, err := ft.Reduce(a, ft.Options{NB: nb, Device: newDev(), Hook: in})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 || res.QCorrections == 0 {
		t.Fatalf("recoveries=%d qcorrections=%d, want 1 and ≥1", res.Recoveries, res.QCorrections)
	}
	if r := lapack.FactorizationResidual(a, res.Q(), res.H()); r > 1e-13 {
		t.Fatalf("residual %v", r)
	}
}

func newPool(k int) []*gpu.Device {
	devs := make([]*gpu.Device, k)
	for i := range devs {
		devs[i] = gpu.NewIndexed(sim.K40c(), gpu.Real, i)
	}
	return devs
}

func TestMultiDeviceFTRecoversInjectedError(t *testing.T) {
	// The same injection campaign as the single-device test, but sharded
	// across a pool: detection and correction happen on the owning slab at
	// the iteration boundary, before the error can propagate.
	n, nb := 192, 16
	a := matrix.Random(n, n, 158)
	for _, area := range []Area{Area1, Area2} {
		in := New(Plan{Area: area, TargetIter: 1, Seed: 5, Delta: 1})
		res, err := ft.Reduce(a, ft.Options{NB: nb, Devices: newPool(2), Hook: in})
		if err != nil {
			t.Fatalf("%v: %v", area, err)
		}
		if res.Detections == 0 {
			t.Fatalf("%v: error not detected", area)
		}
		if res.Recoveries == 0 {
			t.Fatalf("%v: no recovery performed", area)
		}
		if res.Checkpoints != 0 || res.Reexecutions != 0 {
			t.Fatalf("%v: multi path must not checkpoint or re-execute: %+v", area, res)
		}
		h := res.H()
		q := res.Q()
		if r := lapack.FactorizationResidual(a, q, h); r > 1e-13 {
			t.Fatalf("%v: residual after recovery %v", area, r)
		}
		if r := lapack.OrthogonalityResidual(q); r > 1e-13 {
			t.Fatalf("%v: orthogonality after recovery %v", area, r)
		}
	}
}

func TestMultiDeviceFTRecoversArea3(t *testing.T) {
	n, nb := 192, 16
	a := matrix.Random(n, n, 9)
	in := New(Plan{Area: Area3, TargetIter: 2, Seed: 11, Delta: 1})
	res, err := ft.Reduce(a, ft.Options{NB: nb, Devices: newPool(2), Hook: in})
	if err != nil {
		t.Fatal(err)
	}
	if res.QCorrections == 0 {
		t.Fatal("Area3 error not corrected by the Q check")
	}
	if res.Detections != 0 {
		t.Fatalf("Area3 error should not fire H detection, got %d", res.Detections)
	}
	q := res.Q()
	if r := lapack.OrthogonalityResidual(q); r > 1e-12 {
		t.Fatalf("orthogonality %v", r)
	}
	if r := lapack.FactorizationResidual(a, q, res.H()); r > 1e-12 {
		t.Fatalf("residual %v", r)
	}
}

func TestMultiDeviceFTRecoversBitFlip(t *testing.T) {
	n, nb := 192, 16
	a := matrix.Random(n, n, 21)
	in := New(Plan{Area: Area2, TargetIter: 1, Seed: 3, Delta: 1, BitFlip: true, Bit: 51})
	res, err := ft.Reduce(a, ft.Options{NB: nb, Devices: newPool(3), Hook: in})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections == 0 || res.Recoveries == 0 {
		t.Fatalf("bit flip not handled: %+v", res)
	}
	if r := lapack.FactorizationResidual(a, res.Q(), res.H()); r > 1e-13 {
		t.Fatalf("residual after bit-flip recovery %v", r)
	}
}

// An Area-3 bit flip flips the bit in the host Householder store, and
// the logged delta is the change it made.
func TestArea3BitFlipChangesHost(t *testing.T) {
	n, nb := 96, 16
	host := matrix.Random(n, n, 5)
	before := host.Clone()
	in := New(Plan{Area: Area3, TargetIter: 2, Seed: 11, BitFlip: true, Bit: 40})
	in.BeforeIteration(&ft.IterCtx{Dev: newDev(), Host: host, Iter: 2, Panel: 2 * nb, NB: nb, N: n})
	if len(in.Log) != 1 || in.Log[0].Target != ft.TargetQ {
		t.Fatalf("log %+v, want one Q injection", in.Log)
	}
	c := in.Log[0]
	was, got := before.At(c.Row, c.Col), host.At(c.Row, c.Col)
	if math.Float64bits(was)^math.Float64bits(got) != 1<<40 {
		t.Fatalf("element (%d,%d): %v -> %v, want bit 40 flipped", c.Row, c.Col, was, got)
	}
	if c.Delta == 0 || c.Delta != got-was {
		t.Fatalf("logged delta %v, applied %v", c.Delta, got-was)
	}
	host.Set(c.Row, c.Col, was)
	if !host.Equal(before) {
		t.Fatal("the flip touched more than its element")
	}
}

// A pool slab's failed re-check is a detection like any other: the
// journal holds one detection event per counted detection.
func TestPoolRedetectionJournaled(t *testing.T) {
	a := matrix.Random(96, 96, 5)
	for _, seed := range []uint64{1, 3, 4} {
		j := obs.NewJournal()
		in := New(Plan{Area: Area2, TargetIter: 3, BitFlip: true, Bit: 62, Seed: seed})
		devs := []*gpu.Device{gpu.NewIndexed(sim.K40c(), gpu.Real, 0), gpu.NewIndexed(sim.K40c(), gpu.Real, 1)}
		res, _ := ft.Reduce(a, ft.Options{NB: 16, Devices: devs, Hook: in, Journal: j})
		if res.Detections < 2 {
			t.Fatalf("seed %d: %d detections, want a failed re-check", seed, res.Detections)
		}
		if got := j.Counts()[obs.KindDetection]; got != res.Detections {
			t.Fatalf("seed %d: journal holds %d detection events, Result.Detections = %d", seed, got, res.Detections)
		}
	}
}
