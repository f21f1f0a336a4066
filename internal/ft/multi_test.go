package ft

import (
	"errors"
	"math"
	"testing"

	"repro/internal/blas"
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

// newSweepReducer builds a Real-mode pool reducer at N=512, nb=32 (eight
// slabs) over K devices, with a's slabs uploaded and their halos encoded:
// the state a boundary detection sweep reads. The returned func frees it.
func newSweepReducer(t *testing.T, a *matrix.Matrix, k int) (*multiReducer, func()) {
	t.Helper()
	const nb = 32
	pool := devpool.New(k, sim.K40c(), gpu.Real)
	r := &multiReducer{
		run:     newRun(a, Options{NB: nb}, hybrid.PoolLane(pool), pool.Params, true),
		pool:    pool,
		finSlab: -1,
	}
	r.emit = r.journal
	r.threshold(a)
	r.sh = devpool.NewShard(pool, r.n, nb, 1)
	if len(r.sh.Part.Slabs) != 8 {
		t.Fatalf("N=%d nb=%d: %d slabs, want 8", r.n, nb, len(r.sh.Part.Slabs))
	}
	free := r.sweepSetup()
	r.sh.Upload(r.hostA)
	for s := range r.sh.Part.Slabs {
		r.encodeSlab(s)
	}
	return r, func() {
		free()
		r.sh.Free()
	}
}

// TestDetectSweepFlagsOnlyTheFlippedSlab: the vectorised, pool-sharded
// detection totals flag a single flip on exactly its own slab, wherever
// in the slab's storage it lands — a frozen column left of the panel, the
// halo's checksum column or checksum row, or the last slab of the last
// device — at K ∈ {1, 2, 4}, and a clean sweep flags nothing.
func TestDetectSweepFlagsOnlyTheFlippedSlab(t *testing.T) {
	const n, p = 512, 96 // the panel of iteration 3: columns left of it are frozen
	a := matrix.Random(n, n, 41)
	for _, k := range []int{1, 2, 4} {
		r, free := newSweepReducer(t, a, k)
		if bad := r.detectSweep(3, p); len(bad) != 0 {
			t.Fatalf("K=%d: clean sweep flagged slabs %v", k, bad)
		}
		sh := r.sh
		lastDev := sh.DevSlabs[k-1]
		last := lastDev[len(lastDev)-1]
		frozen := sh.Part.SlabOf(p - 7)
		mid := sh.Part.SlabOf(n / 2)
		for _, c := range []struct {
			name     string
			s        int
			row, col int // in the slab's storage: col == Cols is the checksum column, row == n the checksum row
		}{
			{"frozen column", frozen, 300, p - 7 - sh.Part.Slabs[frozen].Start},
			{"checksum column", mid, 17, sh.Part.Slabs[mid].Cols},
			{"checksum row", mid, n, 3},
			{"last slab of the last device", last, n - 1, sh.Part.Slabs[last].Cols - 1},
		} {
			m := sh.SlabM[c.s]
			e := c.col*m.Stride + c.row
			old := m.Data[e]
			m.Data[e] = math.Float64frombits(math.Float64bits(old) ^ 1<<50)
			bad := r.detectSweep(3, p)
			m.Data[e] = old
			if len(bad) != 1 || bad[0] != c.s {
				t.Errorf("K=%d %s: flip in slab %d flagged slabs %v, want exactly [%d]", k, c.name, c.s, bad, c.s)
			}
		}
		free()
	}
}

// TestDetectTotalsSameAtAnyMaxProcs: the staged detection totals are
// bitwise the same whether the slabs' sums run serially or sharded over
// the BLAS worker pool.
func TestDetectTotalsSameAtAnyMaxProcs(t *testing.T) {
	a := matrix.Random(512, 512, 43)
	defer blas.SetMaxProcs(blas.SetMaxProcs(1))
	for _, k := range []int{1, 2, 4} {
		r, free := newSweepReducer(t, a, k)
		var staged [2][][]float64
		for i, procs := range []int{1, 4} {
			blas.SetMaxProcs(procs)
			r.detectSweep(3, 96)
			for d := range r.chkHost {
				staged[i] = append(staged[i], append([]float64(nil), r.chkHost[d].Data...))
			}
		}
		for d := range staged[0] {
			for j, v := range staged[0][d] {
				if math.Float64bits(v) != math.Float64bits(staged[1][d][j]) {
					t.Fatalf("K=%d device %d: staged total %d is %v at SetMaxProcs(1), %v at SetMaxProcs(4)",
						k, d, j, v, staged[1][d][j])
				}
			}
		}
		free()
	}
}
