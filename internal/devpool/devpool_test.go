package devpool

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"

	"repro/internal/blas"
)

func TestPartitionGridInvariants(t *testing.T) {
	cases := []struct{ n, nb int }{
		{2048, 32}, {2048, 64}, {192, 16}, {96, 16}, {100, 16}, {33, 32}, {257, 32},
	}
	for _, c := range cases {
		for _, k := range []int{1, 2, 3, 4} {
			pt := NewPartition(c.n, c.nb, k)
			if pt.Width%c.nb != 0 || pt.Width <= 0 {
				t.Fatalf("n=%d nb=%d k=%d: width %d not a positive multiple of nb", c.n, c.nb, k, pt.Width)
			}
			next := 0
			for i, s := range pt.Slabs {
				if s.Index != i || s.Start != next || s.Cols <= 0 {
					t.Fatalf("n=%d nb=%d k=%d: bad slab %+v (want start %d)", c.n, c.nb, k, s, next)
				}
				if s.Owner != snakeOwner(i, k) {
					t.Fatalf("n=%d nb=%d k=%d: slab %d owner %d, want snake %d", c.n, c.nb, k, i, s.Owner, snakeOwner(i, k))
				}
				next = s.End()
			}
			if next != c.n {
				t.Fatalf("n=%d nb=%d k=%d: slabs cover [0,%d), want [0,%d)", c.n, c.nb, k, next, c.n)
			}
			for col := 0; col < c.n; col++ {
				s := pt.Slabs[pt.SlabOf(col)]
				if col < s.Start || col >= s.End() {
					t.Fatalf("SlabOf(%d) = slab %+v", col, s)
				}
			}
			if m := pt.MaxSlabsPerOwner(k); m < (len(pt.Slabs)+k-1)/k {
				t.Fatalf("MaxSlabsPerOwner(%d) = %d for %d slabs", k, m, len(pt.Slabs))
			}
		}
	}
}

// The grid must depend only on (n, nb): device count assigns owners but
// never moves slab boundaries.
func TestPartitionGridIndependentOfK(t *testing.T) {
	base := NewPartition(2048, 32, 1)
	for _, k := range []int{2, 3, 4, 7} {
		pt := NewPartition(2048, 32, k)
		if len(pt.Slabs) != len(base.Slabs) || pt.Width != base.Width {
			t.Fatalf("k=%d: grid shape changed: %d slabs width %d vs %d/%d",
				k, len(pt.Slabs), pt.Width, len(base.Slabs), base.Width)
		}
		for i := range pt.Slabs {
			if pt.Slabs[i].Start != base.Slabs[i].Start || pt.Slabs[i].Cols != base.Slabs[i].Cols {
				t.Fatalf("k=%d: slab %d boundary moved: %+v vs %+v", k, i, pt.Slabs[i], base.Slabs[i])
			}
		}
	}
}

// Snake ownership must balance lifetime work: slab s stays active for
// every panel left of it, so its total work grows roughly linearly with
// its index (weight ∝ 2s+1 for equal-width slabs).
func TestPartitionSnakeBalancesLinearWork(t *testing.T) {
	for _, k := range []int{2, 4} {
		pt := NewPartition(2048, 16, k)
		load := make([]float64, k)
		for _, s := range pt.Slabs {
			load[s.Owner] += float64(2*s.Index + 1)
		}
		mn, mx := load[0], load[0]
		for _, v := range load {
			mn = min(mn, v)
			mx = max(mx, v)
		}
		if mx > 1.15*mn {
			t.Fatalf("k=%d: snake load imbalance: %v", k, load)
		}
	}
}

// A D2H issued on device A with a dependency on a kernel queued on
// device B's compute stream must not start copying until that kernel
// has finished: cross-device ordering flows through events, exactly as
// a cudaStreamWaitEvent on a peer device's event would behave.
func TestCrossDeviceEventOrdering(t *testing.T) {
	pool := New(2, sim.K40c(), gpu.CostOnly)
	pool.EnableTrace()
	devA, devB := pool.Devices[0], pool.Devices[1]

	mB := devB.Alloc(512, 512)
	mA := devA.Alloc(256, 256)
	host := matrix.New(256, 256)

	pool.Issue(devB)
	kB := devB.Gemm(blas.NoTrans, blas.NoTrans, 512, 512, 512, 1, mB, 0, 0, mB, 0, 0, 0, mB, 0, 0)
	pool.Issue(devA)
	eA := devA.D2HAsync(host, mA, 0, 0, kB)
	if eA.At < kB.At {
		t.Fatalf("D2H on %s completed at %.9fs, before dependency kernel on %s finished at %.9fs",
			devA.Name(), eA.At, devB.Name(), kB.At)
	}
	var copySpan *gpu.Span
	for _, s := range pool.Trace() {
		if s.Lane == devA.Copy.Name() && s.Kind == "d2h" {
			sc := s
			copySpan = &sc
		}
	}
	if copySpan == nil {
		t.Fatal("no d2h span recorded on device A's copy lane")
	}
	if copySpan.Start < kB.At || !slices.Contains(copySpan.Deps, kB.Op) {
		t.Fatalf("d2h span starts at %.9fs with deps %v, before or without the cross-device dependency %d ending at %.9fs",
			copySpan.Start, copySpan.Deps, kB.Op, kB.At)
	}
	pool.Wait(eA)
	if got := pool.Host.Tail(); got < eA.At {
		t.Fatalf("main host advanced to %.9f, want >= %.9f", got, eA.At)
	}
}

// Issue gates a device's driver lane on the main thread: a command
// cannot be processed by the driver before the algorithm issued it.
func TestIssueGatesDriverOnMainThread(t *testing.T) {
	pool := New(2, sim.K40c(), gpu.CostOnly)
	d := pool.Devices[1]
	pool.HostOp(0.005, nil)
	pool.Issue(d)
	m := d.Alloc(64, 64)
	e := d.Gemm(blas.NoTrans, blas.NoTrans, 64, 64, 64, 1, m, 0, 0, m, 0, 0, 0, m, 0, 0)
	if e.At < 0.005 {
		t.Fatalf("kernel finished at %.6fs although the main thread issued it at 0.005s", e.At)
	}
	if tail := d.Host.Tail(); tail < 0.005 {
		t.Fatalf("driver lane tail %.6fs, want >= issue instant 0.005s", tail)
	}
}

func TestElapsedIsMaxOverDevices(t *testing.T) {
	pool := New(3, sim.K40c(), gpu.CostOnly)
	var last float64
	for i, d := range pool.Devices {
		m := d.Alloc(128*(i+1), 128)
		e := d.Gemm(blas.NoTrans, blas.NoTrans, 128*(i+1), 128, 128, 1, m, 0, 0, m, 0, 0, 0, m, 0, 0)
		if e.At > last {
			last = e.At
		}
	}
	if got := pool.Elapsed(); got != last {
		t.Fatalf("Elapsed() = %.9f, want max device tail %.9f", got, last)
	}
	pool.WaitAll()
	if got := pool.Host.Tail(); got != last {
		t.Fatalf("WaitAll left main host at %.9f, want %.9f", got, last)
	}
}

func TestPoolObsAndTrace(t *testing.T) {
	pool := New(2, sim.K40c(), gpu.CostOnly)
	reg := obs.NewRegistry()
	pool.SetObs(reg)
	pool.EnableTrace()
	pool.SetPhase("panel")
	pool.HostOp(0.001, nil)
	for _, d := range pool.Devices {
		m := d.Alloc(64, 64)
		pool.Issue(d)
		d.Gemm(blas.NoTrans, blas.NoTrans, 64, 64, 64, 1, m, 0, 0, m, 0, 0, 0, m, 0, 0)
	}
	pool.WaitAll()
	pool.FinishRun()

	if v := reg.CounterValue("op_seconds_total", obs.L("kind", "host"), obs.L("device", "main")); v < 0.001 {
		t.Fatalf("main-host op_seconds_total = %g, want >= 0.001", v)
	}
	byDev := obs.SumBy(reg, "op_seconds_total", "device")
	for _, want := range []string{"main", "d0", "d1"} {
		if byDev[want] <= 0 {
			t.Fatalf("op_seconds_total missing device=%s series: %v", want, byDev)
		}
	}
	if v := reg.GaugeValue("pool_devices"); v != 2 {
		t.Fatalf("pool_devices = %g, want 2", v)
	}
	if v := reg.GaugeValue("sim_makespan_seconds"); v != pool.Elapsed() {
		t.Fatalf("sim_makespan_seconds = %g, want %g", v, pool.Elapsed())
	}

	var buf bytes.Buffer
	if err := pool.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range events {
		if e["name"] == "thread_name" {
			args := e["args"].(map[string]any)
			names[args["name"].(string)] = true
		}
	}
	for _, lane := range []string{"main-host", "d0-compute", "d1-compute", "d0-copy", "d1-copy", "d0-host", "d1-host"} {
		if !names[lane] {
			t.Fatalf("merged trace missing lane %q (have %v)", lane, names)
		}
	}
	var sum bytes.Buffer
	pool.TraceSummary(&sum)
	if !strings.Contains(sum.String(), "d1-compute") {
		t.Fatalf("TraceSummary missing device lane:\n%s", sum.String())
	}
}
