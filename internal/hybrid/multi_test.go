package hybrid

import (
	"context"
	"testing"

	"repro/internal/devpool"
	"repro/internal/gpu"
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

func TestMultiDeviceMatchesLAPACK(t *testing.T) {
	for _, tc := range []struct{ n, nb, k int }{
		{64, 16, 2}, {100, 16, 3}, {192, 32, 2}, {192, 16, 4},
	} {
		a := matrix.Random(tc.n, tc.n, uint64(tc.n+tc.k))
		res, err := Reduce(a, Options{NB: tc.nb, Devices: newDevs(tc.k, gpu.Real)})
		if err != nil {
			t.Fatal(err)
		}
		refPacked, refTau := lapackReduce(a, tc.nb)
		if d := res.Packed.Sub(refPacked).MaxAbs(); d > 1e-10 {
			t.Fatalf("n=%d nb=%d k=%d: multi-device packed differs from LAPACK by %v", tc.n, tc.nb, tc.k, d)
		}
		for i := range refTau {
			if res.Tau[i] != res.Tau[i] || refTau[i]-res.Tau[i] > 1e-10 || res.Tau[i]-refTau[i] > 1e-10 {
				t.Fatalf("n=%d nb=%d k=%d: tau[%d] %v vs %v", tc.n, tc.nb, tc.k, i, res.Tau[i], refTau[i])
			}
		}
		h := res.H()
		q := res.Q()
		if r := lapack.FactorizationResidual(a, q, h); r > 1e-13 {
			t.Fatalf("n=%d nb=%d k=%d: ‖A−QHQᵀ‖/(N‖A‖) = %v", tc.n, tc.nb, tc.k, r)
		}
	}
}

// Sharding the trailing updates must shorten the simulated makespan.
func TestMultiDeviceSpeedsUpTrailingUpdates(t *testing.T) {
	n := 1024
	a := matrix.New(n, n) // CostOnly: data content irrelevant
	one, err := Reduce(a, Options{NB: 32, Devices: newDevs(1, gpu.CostOnly)})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Reduce(a, Options{NB: 32, Devices: newDevs(4, gpu.CostOnly)})
	if err != nil {
		t.Fatal(err)
	}
	if four.SimSeconds >= one.SimSeconds {
		t.Fatalf("4 devices not faster than 1: %.4fs vs %.4fs", four.SimSeconds, one.SimSeconds)
	}
	t.Logf("N=%d: K=1 %.4fs, K=4 %.4fs (%.2fx)", n, one.SimSeconds, four.SimSeconds, one.SimSeconds/four.SimSeconds)
}

func TestMultiDeviceObsPerDevice(t *testing.T) {
	reg := obs.NewRegistry()
	a := matrix.New(512, 512)
	if _, err := Reduce(a, Options{NB: 32, Devices: newDevs(2, gpu.CostOnly), Obs: reg}); err != nil {
		t.Fatal(err)
	}
	byDev := obs.SumBy(reg, "op_seconds_total", "device")
	for _, want := range []string{"main", "d0", "d1"} {
		if byDev[want] <= 0 {
			t.Fatalf("no op seconds attributed to device=%s: %v", want, byDev)
		}
	}
	if v := reg.GaugeValue("pool_devices"); v != 2 {
		t.Fatalf("pool_devices = %g, want 2", v)
	}
}

func TestMultiDeviceHooksAndErrors(t *testing.T) {
	a := matrix.Random(100, 100, 5)
	res, err := Reduce(a, Options{NB: 16, Devices: newDevs(2, gpu.Real)})
	if err != nil {
		t.Fatal(err)
	}
	// Panels start at 0, 16, ..., 80; from 96 on, the 3 columns left go
	// to the unblocked cleanup.
	if res.BlockedIters != 6 {
		t.Fatalf("%d blocked iterations, want 6", res.BlockedIters)
	}

	if _, err := Reduce(a, Options{NB: 16, Devices: newDevs(2, gpu.Real),
		BeforeIteration: func(IterInfo, *gpu.Matrix, *matrix.Matrix) {}}); err == nil {
		t.Fatal("BeforeIteration must be rejected on the multi-device path")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Reduce(a, Options{NB: 16, Devices: newDevs(2, gpu.Real), Ctx: ctx}); err != context.Canceled {
		t.Fatalf("cancelled context: got %v, want context.Canceled", err)
	}
}

func TestMultiDeviceInputNotModifiedAndSmallSizes(t *testing.T) {
	a := matrix.Random(40, 40, 3)
	orig := a.Clone()
	if _, err := Reduce(a, Options{NB: 8, Devices: newDevs(2, gpu.Real)}); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(orig) {
		t.Fatal("multi-device Reduce modified its input")
	}
	for n := 0; n <= 6; n++ {
		b := matrix.Random(n, n, uint64(n+1))
		res, err := Reduce(b, Options{NB: 4, Devices: newDevs(3, gpu.Real)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n == 0 {
			continue
		}
		if r := lapack.FactorizationResidual(b, res.Q(), res.H()); r > 1e-13 {
			t.Fatalf("n=%d: residual %v", n, r)
		}
	}
}

// A pool run traced through its devices — how fthess -trace and served
// jobs enable tracing — records the main-host lane, where the whole
// panel factorization runs.
func TestPoolTraceRecordsMainHost(t *testing.T) {
	devs := newDevs(2, gpu.CostOnly)
	for _, d := range devs {
		d.EnableTrace()
	}
	if _, err := Reduce(matrix.New(256, 256), Options{NB: 32, Devices: devs}); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, s := range devpool.Wrap(devs).Trace() {
		if s.Lane == "main-host" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("traced pool run recorded no main-host spans")
	}
}
