package ft

import (
	"errors"
	"math"
	"testing"

	"repro/internal/devpool"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

func newDevs(k int, mode gpu.Mode) []*gpu.Device {
	devs := make([]*gpu.Device, k)
	for i := range devs {
		devs[i] = gpu.NewIndexed(sim.K40c(), mode, i)
	}
	return devs
}

// multiPokeHook injects explicit pokes at one iteration boundary through
// the routing accessors, so it works on both the single- and multi-device
// paths.
type multiPokeHook struct {
	iter    int
	pokes   []Injection
	pending int
	fired   bool
}

func (h *multiPokeHook) BeforeIteration(ctx *IterCtx) {
	if ctx.Iter != h.iter || h.fired {
		return
	}
	h.fired = true
	for _, p := range h.pokes {
		ctx.PokeH(p.Row, p.Col, p.Delta)
		h.pending++
	}
}
func (h *multiPokeHook) ConsumePendingH() int { c := h.pending; h.pending = 0; return c }
func (h *multiPokeHook) PendingQ() int        { return 0 }

// The checksum halo must never leak into the data path: a clean FT run on
// K devices is bit-identical to the plain hybrid multi-device reduction —
// and therefore (by hybrid's own contract) bit-identical at every K.
func TestMultiFaultFreeBitIdenticalToHybrid(t *testing.T) {
	n, nb := 192, 16
	a := matrix.Random(n, n, 31)
	ref, err := hybrid.Reduce(a, hybrid.Options{NB: nb, Devices: newDevs(1, gpu.Real)})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 4} {
		res, err := Reduce(a, Options{NB: nb, Devices: newDevs(k, gpu.Real)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Detections != 0 || res.Recoveries != 0 || res.QCorrections != 0 {
			t.Fatalf("k=%d: phantom resilience events: %+v", k, res)
		}
		if !res.Packed.Equal(ref.Packed) {
			d := res.Packed.Sub(ref.Packed).MaxAbs()
			t.Fatalf("k=%d: packed not bit-identical to hybrid (max |Δ| = %g)", k, d)
		}
		for i := range ref.Tau {
			if res.Tau[i] != ref.Tau[i] {
				t.Fatalf("k=%d: tau[%d] = %v vs hybrid's %v", k, i, res.Tau[i], ref.Tau[i])
			}
		}
	}
}

// A corrupted slab is detected at the next iteration boundary — before the
// fault can propagate — and corrected in place, with no checkpoints and no
// re-execution.
func TestMultiRecoversPokeWithoutReexecution(t *testing.T) {
	n, nb := 192, 16
	a := matrix.Random(n, n, 8)
	hook := &multiPokeHook{iter: 1, pokes: []Injection{{Row: 100, Col: 170, Delta: 3.5}}}
	res, err := Reduce(a, Options{NB: nb, Devices: newDevs(2, gpu.Real), Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections == 0 || res.Recoveries == 0 {
		t.Fatalf("fault not handled: %+v", res)
	}
	if res.Checkpoints != 0 || res.Reexecutions != 0 {
		t.Fatalf("multi path must correct in place: %d checkpoints, %d re-executions",
			res.Checkpoints, res.Reexecutions)
	}
	if len(res.CorrectedH) != 1 {
		t.Fatalf("corrected %d positions", len(res.CorrectedH))
	}
	c := res.CorrectedH[0]
	if c.Row != 100 || c.Col != 170 || math.Abs(c.Delta-3.5) > 1e-6 {
		t.Fatalf("wrong correction: %+v", c)
	}
	h := res.H()
	q := res.Q()
	if r := lapack.FactorizationResidual(a, q, h); r > 1e-13 {
		t.Fatalf("residual after recovery %v", r)
	}
	if r := lapack.OrthogonalityResidual(q); r > 1e-13 {
		t.Fatalf("orthogonality after recovery %v", r)
	}
}

// The acceptance criterion for slab-local recovery: a fault confined to
// one device's slab is corrected entirely on that device. Every other
// device's transfer counters are identical to a clean run's — nothing was
// recomputed or re-shipped on their behalf.
func TestMultiRecoveryIsSlabLocal(t *testing.T) {
	n, nb, k := 192, 16, 2
	a := matrix.Random(n, n, 13)
	row, col := 100, 170
	part := devpool.NewPartition(n, nb, k)
	owner := part.Slabs[part.SlabOf(col)].Owner

	run := func(hook Hook) []*gpu.Device {
		devs := newDevs(k, gpu.Real)
		if _, err := Reduce(a, Options{NB: nb, Devices: devs, Hook: hook}); err != nil {
			t.Fatal(err)
		}
		return devs
	}
	clean := run(nil)
	faulted := run(&multiPokeHook{iter: 1, pokes: []Injection{{Row: row, Col: col, Delta: 2.0}}})

	for d := 0; d < k; d++ {
		cc, cb := clean[d].TransferStats()
		fc, fb := faulted[d].TransferStats()
		if d == owner {
			if fc <= cc {
				t.Fatalf("owner device %d: expected extra recovery transfers, clean %d vs faulted %d", d, cc, fc)
			}
			continue
		}
		if fc != cc || fb != cb {
			t.Fatalf("device %d (not the owner) moved different data under a fault: clean %d/%dB, faulted %d/%dB",
				d, cc, cb, fc, fb)
		}
	}
}

// An exponent-field hit that drives a value non-finite is unrecoverable by
// residual arithmetic; the multi path must fail loudly, never silently.
func TestMultiNonFiniteUncorrectable(t *testing.T) {
	n, nb := 192, 16
	a := matrix.Random(n, n, 17)
	hook := &multiPokeHook{iter: 1, pokes: []Injection{{Row: 50, Col: 100, Delta: math.Inf(1)}}}
	_, err := Reduce(a, Options{NB: nb, Devices: newDevs(2, gpu.Real), Hook: hook})
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("expected ErrUncorrectable, got %v", err)
	}
}

// Cost-only mode: detection is hook-driven, recovery kernels are charged,
// and the faulted run's simulated makespan strictly exceeds the clean one.
func TestMultiCostOnlyChargesRecovery(t *testing.T) {
	n, nb := 256, 32
	a := matrix.Random(n, n, 3)
	clean, err := Reduce(a, Options{NB: nb, Devices: newDevs(2, gpu.CostOnly)})
	if err != nil {
		t.Fatal(err)
	}
	hook := &multiPokeHook{iter: 1, pokes: []Injection{{Row: 9, Col: 120, Delta: 1}}}
	res, err := Reduce(a, Options{NB: nb, Devices: newDevs(2, gpu.CostOnly), Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections == 0 || res.Recoveries == 0 {
		t.Fatalf("cost-only detection did not fire: %+v", res)
	}
	if res.SimSeconds <= clean.SimSeconds {
		t.Fatalf("recovery charged no time: clean %v vs faulted %v", clean.SimSeconds, res.SimSeconds)
	}
}

// Counters and journal: the multi path reports through the same obs
// vocabulary as the single-device path.
func TestMultiObsCountersAndJournal(t *testing.T) {
	n, nb := 192, 16
	a := matrix.Random(n, n, 23)
	reg := obs.NewRegistry()
	j := obs.NewJournal()
	hook := &multiPokeHook{iter: 1, pokes: []Injection{{Row: 80, Col: 40, Delta: 1.5}}}
	res, err := Reduce(a, Options{NB: nb, Devices: newDevs(2, gpu.Real), Hook: hook, Obs: reg, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]float64{}
	gauges := map[string]float64{}
	for _, p := range reg.Snapshot() {
		switch p.Kind {
		case "counter":
			counters[p.Name] += p.Value
		case "gauge":
			gauges[p.Name] += p.Value
		}
	}
	if counters["ft_detections_total"] != float64(res.Detections) {
		t.Fatalf("detections counter %v vs result %d", counters["ft_detections_total"], res.Detections)
	}
	if counters["ft_checksum_checks_total"] == 0 {
		t.Fatal("no checksum checks counted")
	}
	if counters["ft_corrections_total"] == 0 {
		t.Fatal("no corrections counted")
	}
	kinds := map[obs.Kind]int{}
	for _, ev := range j.Events() {
		kinds[ev.Kind]++
	}
	for _, k := range []obs.Kind{obs.KindChecksumCheck, obs.KindDetection, obs.KindLocation, obs.KindCorrection} {
		if kinds[k] == 0 {
			t.Fatalf("journal is missing %v events (have %v)", k, kinds)
		}
	}
	if _, ok := gauges["sim_makespan_seconds"]; !ok {
		t.Fatalf("pool did not publish makespan gauge: %v", gauges)
	}
}

// The boundary check is one totals kernel per device, however many slabs
// the device owns: on an 8-slab shard at K=1 (8 slabs on the device) and
// K=2 (4 each), with and without the lookahead schedule.
func TestDetectSweepOneLaunchPerDevice(t *testing.T) {
	const n, nb = 512, 32
	for _, la := range []bool{false, true} {
		for _, k := range []int{1, 2} {
			pool := devpool.New(k, sim.K40c(), gpu.CostOnly)
			r := &multiReducer{
				run:     newRun(matrix.Shape(n, n), Options{NB: nb, DisableLookahead: !la}, hybrid.PoolLane(pool), pool.Params, false),
				pool:    pool,
				finSlab: -1,
			}
			r.emit = r.journal
			r.sh = devpool.NewShard(pool, n, nb, 1)
			if len(r.sh.Part.Slabs) != 8 {
				t.Fatalf("N=%d nb=%d: %d slabs, want 8", n, nb, len(r.sh.Part.Slabs))
			}
			free := r.sweepSetup()
			before := make([]int64, k)
			for d, dev := range pool.Devices {
				before[d] = dev.KernelCount()
			}
			r.detectSweep(1, nb)
			for d, dev := range pool.Devices {
				if got := dev.KernelCount() - before[d]; got != 1 {
					t.Errorf("la=%v K=%d device %d owns %d slabs: detection sweep launched %d kernels, want 1",
						la, k, d, len(r.sh.DevSlabs[d]), got)
				}
			}
			free()
			r.sh.Free()
		}
	}
}
