package ft

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The fused-ABFT substrate changes how checksums are produced — inside
// the BLAS kernels and, on the multi path, as an incremental panel-slab
// halo refresh — never what the data path computes. The property test
// pins that down as byte identity of the packed result and tau across
// the substrate switch, at every pool size (0 = the legacy single-device
// path) and panel width, with zero detections either way: a drifted
// incremental halo would fire a phantom mismatch at the next boundary
// sweep, and a broken fused kernel would fire its own epilogue check.
func TestSubstrateDigestInvariance(t *testing.T) {
	n := 160
	a := matrix.Random(n, n, 53)
	for _, nb := range []int{8, 32} {
		for _, k := range []int{0, 1, 2, 4} {
			pool := func() []*gpu.Device {
				if k == 0 {
					return nil
				}
				return newDevs(k, gpu.Real)
			}
			swept, err := Reduce(a, Options{NB: nb, Devices: pool(), Device: single(k), Substrate: SubstrateSwept})
			if err != nil {
				t.Fatal(err)
			}
			fused, err := Reduce(a, Options{NB: nb, Devices: pool(), Device: single(k), Substrate: SubstrateFused})
			if err != nil {
				t.Fatal(err)
			}
			comparePackedTau(t, "substrate", nb, k, fused.Packed, swept.Packed, fused.Tau, swept.Tau)
			if fused.Detections != 0 || swept.Detections != 0 {
				t.Fatalf("nb=%d k=%d: phantom detections (fused %d, swept %d)",
					nb, k, fused.Detections, swept.Detections)
			}
			if fused.SubstrateChecks == 0 {
				t.Fatalf("nb=%d k=%d: fused run accumulated zero substrate checks", nb, k)
			}
			if fused.SubstrateDetections != 0 {
				t.Fatalf("nb=%d k=%d: clean fused run reported %d substrate detections", nb, k, fused.SubstrateDetections)
			}
			if swept.SubstrateChecks != 0 || swept.SubstrateDetections != 0 {
				t.Fatalf("nb=%d k=%d: swept run touched substrate counters: %+v", nb, k, swept)
			}
		}
	}
}

func TestSubstrateUnknownRejected(t *testing.T) {
	a := matrix.Random(32, 32, 7)
	for _, devs := range [][]*gpu.Device{nil, newDevs(2, gpu.Real)} {
		_, err := Reduce(a, Options{NB: 8, Devices: devs, Device: single(len(devs)), Substrate: "bogus"})
		if err == nil || !strings.Contains(err.Error(), "bogus") {
			t.Fatalf("devices=%d: unknown substrate accepted (err=%v)", len(devs), err)
		}
	}
}

// A memory fault injected at an iteration boundary corrupts the *inputs*
// of the next kernels; the fused epilogue verifies each call against its
// own (corrupted) inputs, so the boundary sweep must remain the
// authoritative detector and corrector under the fused substrate too.
func TestSubstrateFusedFaultStillSweptAndCorrected(t *testing.T) {
	n, nb := 192, 16
	a := matrix.Random(n, n, 27)
	hook := &multiPokeHook{iter: 1, pokes: []Injection{{Row: 100, Col: 170, Delta: 3.5}}}
	res, err := Reduce(a, Options{NB: nb, Devices: newDevs(2, gpu.Real), Hook: hook, Substrate: SubstrateFused})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections == 0 || res.Recoveries == 0 {
		t.Fatalf("fault not handled under fused substrate: %+v", res)
	}
	if len(res.CorrectedH) != 1 {
		t.Fatalf("corrected %d positions, want 1", len(res.CorrectedH))
	}
	c := res.CorrectedH[0]
	if c.Row != 100 || c.Col != 170 || math.Abs(c.Delta-3.5) > 1e-6 {
		t.Fatalf("wrong correction %+v", c)
	}
	h := res.H()
	q := res.Q()
	if r := lapack.FactorizationResidual(a, q, h); r > 1e-13 {
		t.Fatalf("residual after recovery under fused substrate: %v", r)
	}
}

// Fail-stop device loss under the fused substrate: the lost device may
// carry the frozen-prefix accumulator, and the restart on the survivor
// must run fused again (checking every call, detecting nothing) and
// finish bit-identical to a fault-free fused run.
func TestSubstrateFusedSurvivesDeviceLoss(t *testing.T) {
	n, nb := 192, 16
	a := matrix.Random(n, n, 33)
	clean, err := Reduce(a, Options{NB: nb, Devices: newDevs(2, gpu.Real), Substrate: SubstrateFused})
	if err != nil {
		t.Fatal(err)
	}
	// The restart's own checks are a clean fused run's on the survivor.
	survivor, err := Reduce(a, Options{NB: nb, Devices: newDevs(1, gpu.Real), Substrate: SubstrateFused})
	if err != nil {
		t.Fatal(err)
	}
	for _, point := range []string{"boundary", "update"} {
		hook := &killHook{kills: []killSpec{{iter: 2, dev: 0, point: point}}}
		res, err := Reduce(a, Options{NB: nb, Devices: newDevs(2, gpu.Real), Hook: hook, Substrate: SubstrateFused})
		if err != nil {
			t.Fatalf("point %s: %v", point, err)
		}
		if res.DeviceLosses != 1 || res.FailStopRecoveries != 1 {
			t.Fatalf("point %s: %d losses, %d restarts, want 1 and 1", point, res.DeviceLosses, res.FailStopRecoveries)
		}
		if res.SubstrateChecks <= survivor.SubstrateChecks || res.SubstrateDetections != 0 {
			t.Fatalf("point %s: substrate checks %d (clean on the survivor %d), detections %d", point,
				res.SubstrateChecks, survivor.SubstrateChecks, res.SubstrateDetections)
		}
		checkBitIdentical(t, res, clean, "fused "+point+" kill")
	}
}

// The point of the incremental refresh: the checksum_maintenance phase
// must get measurably cheaper when the substrate carries the frozen
// prefix forward instead of re-encoding the whole panel slab every
// iteration. Cost-only mode exposes the modeled phase time exactly.
func TestSubstrateMaintenancePhaseDrops(t *testing.T) {
	n, nb := 512, 16
	a := matrix.Random(n, n, 61)
	phaseTime := func(substrate string) float64 {
		reg := obs.NewRegistry()
		_, err := Reduce(a, Options{NB: nb, Devices: newDevs(2, gpu.CostOnly), Obs: reg, Substrate: substrate})
		if err != nil {
			t.Fatal(err)
		}
		return obs.SumBy(reg, "phase_seconds", "phase")["checksum_maintenance"]
	}
	swept := phaseTime(SubstrateSwept)
	fused := phaseTime(SubstrateFused)
	if swept <= 0 || fused <= 0 {
		t.Fatalf("checksum_maintenance phase unreported (swept %v, fused %v)", swept, fused)
	}
	// The frozen prefix covers half the slab on average; require at
	// least a 20% drop so the assertion has teeth without overfitting
	// the cost model.
	if fused > 0.8*swept {
		t.Fatalf("maintenance did not drop measurably: fused %v vs swept %v", fused, swept)
	}
}

// The substrate counters must surface through the registry like every
// other FT counter, pre-touched at zero on clean swept runs.
func TestSubstrateCountersExposed(t *testing.T) {
	a := matrix.Random(96, 96, 19)
	reg := obs.NewRegistry()
	res, err := Reduce(a, Options{NB: 8, Device: gpu.New(sim.K40c(), gpu.Real), Obs: reg, Substrate: SubstrateFused})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "ft_substrate_checks_total") || !strings.Contains(text, "ft_substrate_detections_total") {
		t.Fatalf("substrate counters missing from export:\n%s", text)
	}
	if res.SubstrateChecks == 0 {
		t.Fatal("Result.SubstrateChecks stayed zero on a Real-mode fused run")
	}
}
