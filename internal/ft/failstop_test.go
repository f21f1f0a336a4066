package ft

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// killSpec arms one device kill at one iteration.
type killSpec struct {
	iter  int
	dev   int
	point string
}

// killHook arms fail-stop device kills through IterCtx.KillDevice; it
// performs no transient injections.
type killHook struct {
	kills []killSpec
}

func (h *killHook) BeforeIteration(ctx *IterCtx) {
	for _, k := range h.kills {
		if ctx.Iter == k.iter {
			ctx.KillDevice(k.dev, k.point)
		}
	}
}
func (h *killHook) ConsumePendingH() int { return 0 }

// mustReduceClean runs a fault-free reduction as the bit-identical
// reference.
func mustReduceClean(t *testing.T, a *matrix.Matrix, nb, k int) *Result {
	t.Helper()
	res, err := Reduce(a, Options{NB: nb, Devices: newDevs(k, gpu.Real)})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkBitIdentical(t *testing.T, res, ref *Result, label string) {
	t.Helper()
	if !res.Packed.Equal(ref.Packed) {
		d := res.Packed.Sub(ref.Packed).MaxAbs()
		t.Fatalf("%s: packed not bit-identical to fault-free run (max |Δ| = %g)", label, d)
	}
	for i := range ref.Tau {
		if res.Tau[i] != ref.Tau[i] {
			t.Fatalf("%s: tau[%d] = %v vs clean %v", label, i, res.Tau[i], ref.Tau[i])
		}
	}
}

// A device killed at each kill point (iteration boundary, panel
// offload, mid trailing update) ends the attempt, and the restart on the
// survivors returns bits identical to the fault-free run.
func TestFailStopKillPointsBitIdentical(t *testing.T) {
	n, nb, k := 192, 16, 3
	a := matrix.Random(n, n, 42)
	ref := mustReduceClean(t, a, nb, k)
	for _, point := range []string{"boundary", "panel", "update"} {
		for dev := 0; dev < k; dev++ {
			hook := &killHook{kills: []killSpec{{iter: 2, dev: dev, point: point}}}
			res, err := Reduce(a, Options{NB: nb, Devices: newDevs(k, gpu.Real), Hook: hook})
			if err != nil {
				t.Fatalf("%s d%d: %v", point, dev, err)
			}
			if res.DeviceLosses != 1 || res.FailStopRecoveries != 1 {
				t.Fatalf("%s d%d: losses=%d restarts=%d", point, dev,
					res.DeviceLosses, res.FailStopRecoveries)
			}
			checkBitIdentical(t, res, ref, point+" kill")
			h, q := res.H(), res.Q()
			if r := lapack.FactorizationResidual(a, q, h); r > 1e-13 {
				t.Fatalf("%s d%d: residual after restart %v", point, dev, r)
			}
		}
	}
}

// A second device lost as the restart begins exceeds the single-loss
// budget: the run must fail with ErrUncorrectable, never silently.
func TestFailStopDoubleFaultUncorrectable(t *testing.T) {
	n, nb, k := 192, 16, 3
	a := matrix.Random(n, n, 44)
	hook := &killHook{kills: []killSpec{
		{iter: 2, dev: 0, point: "update"},
		{iter: 2, dev: 1, point: "recovery"},
	}}
	res, err := Reduce(a, Options{NB: nb, Devices: newDevs(k, gpu.Real), Hook: hook})
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("double fault: err = %v, want ErrUncorrectable", err)
	}
	if res.DeviceLosses != 2 {
		t.Fatalf("double fault: losses=%d, want 2", res.DeviceLosses)
	}
	if res.FailStopRecoveries != 0 {
		t.Fatalf("double fault: phantom restart")
	}
}

// The single-device path has no survivors to restart on: a kill there is
// always fatal.
func TestFailStopSingleDeviceKillUncorrectable(t *testing.T) {
	n, nb := 96, 16
	a := matrix.Random(n, n, 46)
	hook := &killHook{kills: []killSpec{{iter: 1, dev: 0, point: "boundary"}}}
	_, err := Reduce(a, Options{NB: nb, Device: gpu.New(sim.K40c(), gpu.Real), Hook: hook})
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("single device: err = %v, want ErrUncorrectable", err)
	}
}

// A restart's modeled time is exact: the killed run's makespan is the
// loss instant (the journaled device_loss time) plus a clean run on the
// K−1 survivors, or on one fresh device when K=1. Cost-only, at every
// kill point.
func TestFailStopCostOnlyRecovery(t *testing.T) {
	n, nb := 384, 32
	a := matrix.Shape(n, n)
	for _, k := range []int{1, 2, 3, 4} {
		survivors, err := Reduce(a, Options{NB: nb, Devices: newDevs(max(k-1, 1), gpu.CostOnly)})
		if err != nil {
			t.Fatal(err)
		}
		for _, point := range []string{"boundary", "panel", "update"} {
			label := fmt.Sprintf("K=%d %s", k, point)
			j := obs.NewJournal()
			hook := &killHook{kills: []killSpec{{iter: 2, dev: k - 1, point: point}}}
			res, err := Reduce(a, Options{NB: nb, Devices: newDevs(k, gpu.CostOnly), Hook: hook, Journal: j})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.FailStopRecoveries != 1 || res.DeviceLosses != 1 {
				t.Fatalf("%s: losses=%d restarts=%d", label, res.DeviceLosses, res.FailStopRecoveries)
			}
			loss := math.NaN()
			for _, ev := range j.Events() {
				if ev.Kind == obs.KindDeviceLoss {
					loss = ev.SimTime
				}
			}
			if !(loss > 0) {
				t.Fatalf("%s: no device_loss event with a positive time (got %v)", label, loss)
			}
			want := loss + survivors.SimSeconds
			if d := math.Abs(res.SimSeconds-want) / want; !(d <= 1e-9) {
				t.Fatalf("%s: killed run %.12gs, want loss %.12gs + survivors %.12gs (rel. error %g)",
					label, res.SimSeconds, loss, survivors.SimSeconds, d)
			}
		}
	}
}
