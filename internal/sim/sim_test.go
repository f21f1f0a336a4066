package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGemmFlops(t *testing.T) {
	if GemmFlops(2, 3, 4) != 48 {
		t.Fatalf("GemmFlops = %v", GemmFlops(2, 3, 4))
	}
	if GemvFlops(5, 6) != 60 {
		t.Fatalf("GemvFlops = %v", GemvFlops(5, 6))
	}
	if math.Abs(HessenbergFlops(100)-10.0/3.0*1e6) > 1 {
		t.Fatalf("HessenbergFlops = %v", HessenbergFlops(100))
	}
}

func TestGemmDeviceMonotonic(t *testing.T) {
	p := K40c()
	small := p.GemmDevice(100, 100, 32)
	large := p.GemmDevice(1000, 1000, 32)
	if large <= small {
		t.Fatalf("larger GEMM must cost more: %v vs %v", large, small)
	}
	// Efficiency should improve with size: GFLOPS(large) > GFLOPS(small).
	gs := GemmFlops(100, 100, 32) / small
	gl := GemmFlops(1000, 1000, 32) / large
	if gl <= gs {
		t.Fatalf("efficiency should improve with size: %v vs %v GFLOP/s", gl/1e9, gs/1e9)
	}
}

func TestGemmDeviceBelowPeak(t *testing.T) {
	p := K40c()
	d := p.GemmDevice(8000, 8000, 8000)
	rate := GemmFlops(8000, 8000, 8000) / d / 1e9
	if rate >= p.GPUGemmPeakGFLOPS {
		t.Fatalf("model exceeds peak: %v GFLOP/s", rate)
	}
	if rate < 0.5*p.GPUGemmPeakGFLOPS {
		t.Fatalf("huge GEMM should approach peak: %v GFLOP/s", rate)
	}
}

func TestGemvDeviceBandwidthBound(t *testing.T) {
	p := K40c()
	d := p.GemvDevice(4000, 4000) - p.KernelLaunchSec
	wantBytes := 8.0 * 4000 * 4000
	want := wantBytes / (p.GPUBandwidthGBps * 1e9)
	if math.Abs(d-want)/want > 1e-9 {
		t.Fatalf("GEMV time %v, want %v", d, want)
	}
}

func TestTransferIncludesLatency(t *testing.T) {
	p := K40c()
	if p.Transfer(0) != p.PCIeLatencySec {
		t.Fatal("zero-byte transfer should cost exactly the latency")
	}
	mb := p.Transfer(1 << 20)
	if mb <= p.PCIeLatencySec {
		t.Fatal("1MB transfer must cost more than latency")
	}
}

func TestHostCosts(t *testing.T) {
	p := K40c()
	if p.GemmHost(100, 100, 100) <= 0 || p.GemvHost(10, 10) <= 0 || p.VecHost(5) <= 0 {
		t.Fatal("host costs must be positive")
	}
	// Host GEMM rate equals the configured sustained rate.
	rate := GemmFlops(500, 500, 500) / p.GemmHost(500, 500, 500) / 1e9
	if math.Abs(rate-p.CPUGemmGFLOPS) > 1e-6 {
		t.Fatalf("host GEMM rate %v, want %v", rate, p.CPUGemmGFLOPS)
	}
}

func TestTimelineFIFO(t *testing.T) {
	tl := NewTimeline("stream0")
	e1 := tl.Schedule(1.0)
	e2 := tl.Schedule(2.0)
	if e1.At != 1.0 || e2.At != 3.0 {
		t.Fatalf("FIFO times %v %v", e1.At, e2.At)
	}
	if tl.Tail() != 3.0 || tl.Busy() != 3.0 {
		t.Fatalf("tail %v busy %v", tl.Tail(), tl.Busy())
	}
}

func TestTimelineDependencies(t *testing.T) {
	a := NewTimeline("a")
	b := NewTimeline("b")
	ea := a.Schedule(5.0)
	// b's op depends on a's: cannot start before t=5.
	eb := b.Schedule(1.0, ea)
	if eb.At != 6.0 {
		t.Fatalf("dependent op completed at %v, want 6", eb.At)
	}
	// Independent op on b starts after the previous b op (FIFO).
	eb2 := b.Schedule(1.0)
	if eb2.At != 7.0 {
		t.Fatalf("FIFO after dependency: %v, want 7", eb2.At)
	}
}

func TestTimelineOverlapModel(t *testing.T) {
	// Two independent lanes overlap: makespan is the max, not the sum.
	c := NewTimeline("compute")
	x := NewTimeline("copy")
	c.Schedule(3.0)
	x.Schedule(2.0)
	if Makespan(c, x) != 3.0 {
		t.Fatalf("makespan %v, want 3", Makespan(c, x))
	}
}

func TestAdvanceTo(t *testing.T) {
	h := NewTimeline("host")
	h.Schedule(1.0)
	h.AdvanceTo(10)
	if h.Tail() != 10 {
		t.Fatalf("AdvanceTo: %v", h.Tail())
	}
	h.AdvanceTo(5) // must not move backwards
	if h.Tail() != 10 {
		t.Fatalf("AdvanceTo moved backwards: %v", h.Tail())
	}
	// Busy time excludes waiting.
	if h.Busy() != 1.0 {
		t.Fatalf("busy %v, want 1", h.Busy())
	}
}

// Property: scheduling never moves time backwards and durations accumulate.
func TestPropScheduleMonotonic(t *testing.T) {
	f := func(durs []float64) bool {
		tl := NewTimeline("p")
		prev := 0.0
		for _, d := range durs {
			if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				d = 0.5
			}
			d = math.Mod(d, 10)
			if d < 0 {
				d = -d
			}
			e := tl.Schedule(d)
			if e.At < prev {
				return false
			}
			prev = e.At
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
