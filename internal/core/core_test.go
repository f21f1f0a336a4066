package core

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestReduceAllAlgorithmsAgree(t *testing.T) {
	n := 100
	a := matrix.Random(n, n, 1)
	var packed []*matrix.Matrix
	for _, alg := range []Algorithm{FaultTolerant, Baseline, CPUOnly} {
		res, err := Reduce(a, Options{Algorithm: alg, NB: 16})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Algorithm != alg {
			t.Fatalf("algorithm tag %v", res.Algorithm)
		}
		if !res.H().IsUpperHessenberg(0) {
			t.Fatalf("%v: not Hessenberg", alg)
		}
		if r, o := res.Checks(a); r > 1e-14 || o > 1e-13 {
			t.Fatalf("%v: residual %v, orthogonality %v", alg, r, o)
		}
		packed = append(packed, res.Packed)
	}
	if d := packed[0].Sub(packed[2]).MaxAbs(); d > 1e-11 {
		t.Fatalf("FT vs CPU packed differ by %v", d)
	}
	if d := packed[1].Sub(packed[2]).MaxAbs(); d > 1e-11 {
		t.Fatalf("hybrid vs CPU packed differ by %v", d)
	}
}

func TestReduceDefaultsToFT(t *testing.T) {
	a := matrix.Random(64, 64, 2)
	res, err := Reduce(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != FaultTolerant {
		t.Fatalf("default algorithm %v", res.Algorithm)
	}
	if res.NB != 32 {
		t.Fatalf("default NB %d", res.NB)
	}
}

func TestReduceWithInjection(t *testing.T) {
	n := 158
	a := matrix.Random(n, n, 3)
	in := fault.New(fault.Plan{Area: fault.Area2, TargetIter: 1, Seed: 4})
	res, err := Reduce(a, Options{Hook: in, NB: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections == 0 || res.Recoveries == 0 {
		t.Fatalf("injection not handled: %+v", res)
	}
	if r, o := res.Checks(a); r > 1e-13 || o > 1e-13 {
		t.Fatalf("residual %v, orthogonality %v", r, o)
	}
}

// TestReduceNaNInputFails: an FT reduction of an input holding one NaN
// ends in an error, never in a result, on the single-device schedule and
// on a two-device pool, under both substrates.
func TestReduceNaNInputFails(t *testing.T) {
	a := matrix.Random(96, 96, 5)
	a.Set(40, 17, math.NaN())
	for _, devices := range []int{0, 2} {
		for _, substrate := range []string{"swept", "fused"} {
			if _, err := Reduce(a, Options{NB: 16, DeviceCount: devices, Substrate: substrate}); err == nil {
				t.Errorf("K=%d, %s substrate: a NaN input reduced without an error", devices, substrate)
			}
		}
	}
}

func TestEigenvaluesPipeline(t *testing.T) {
	n := 24
	a := matrix.New(n, n)
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i + 1)
		a.Set(i, i, want[i])
		if i > 0 {
			a.Set(i, i-1, 0.5) // non-normal but triangular-ish: eigenvalues stay the diagonal
		}
	}
	eigs, res, err := Eigenvalues(a, Options{NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Algorithm != FaultTolerant {
		t.Fatal("missing reduction result")
	}
	for i, e := range eigs {
		if math.Abs(e.Re-want[i]) > 1e-8 || math.Abs(e.Im) > 1e-8 {
			t.Fatalf("eig %d = %v+%vi, want %v", i, e.Re, e.Im, want[i])
		}
	}
}

func TestEigenvaluesUnderInjection(t *testing.T) {
	// The end-to-end story: eigenvalues survive an injected soft error.
	n := 126
	a := matrix.RandomNormal(n, n, 5)
	clean, _, err := Eigenvalues(a, Options{NB: 16, Algorithm: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	in := fault.New(fault.Plan{Area: fault.Area2, TargetIter: 2, Seed: 6})
	dirty, res, err := Eigenvalues(a, Options{NB: 16, Hook: in})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries == 0 {
		t.Fatal("no recovery")
	}
	for i := range clean {
		if math.Abs(clean[i].Re-dirty[i].Re) > 1e-6 || math.Abs(clean[i].Im-dirty[i].Im) > 1e-6 {
			t.Fatalf("eig %d drifted: %v vs %v", i, clean[i], dirty[i])
		}
	}
}

func TestEigenvaluesRejectsCostOnly(t *testing.T) {
	if _, _, err := Eigenvalues(matrix.New(4, 4), Options{CostOnly: true}); err == nil {
		t.Fatal("cost-only eigenvalues must error")
	}
}

func TestCostOnlyReduce(t *testing.T) {
	res, err := Reduce(matrix.New(512, 512), Options{CostOnly: true, NB: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimSeconds <= 0 || res.ModelGFLOPS <= 0 {
		t.Fatalf("cost-only stats: %v s %v GFLOPS", res.SimSeconds, res.ModelGFLOPS)
	}
}

func TestNonSquareRejected(t *testing.T) {
	for _, alg := range []Algorithm{FaultTolerant, Baseline, CPUOnly} {
		if _, err := Reduce(matrix.New(3, 4), Options{Algorithm: alg}); err == nil {
			t.Fatalf("%v accepted non-square", alg)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if FaultTolerant.String() != "FT-Hess" || Baseline.String() != "MAGMA-Hess" || CPUOnly.String() != "LAPACK-DGEHRD" {
		t.Fatal("algorithm names changed")
	}
	if Algorithm(9).String() == "" {
		t.Fatal("unknown algorithm must still print")
	}
}

func TestReduceSymBothPaths(t *testing.T) {
	n := 100
	a := matrix.RandomSymmetric(n, 6)
	hyb, err := ReduceSym(a, SymOptions{NB: 16})
	if err != nil {
		t.Fatal(err)
	}
	ftr, err := ReduceSym(a, SymOptions{NB: 16, FaultTolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(hyb.D[i]-ftr.D[i]) > 1e-10 {
			t.Fatalf("d[%d]: hybrid %v vs FT %v", i, hyb.D[i], ftr.D[i])
		}
	}
	e1, err := hyb.Eigenvalues()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ftr.Eigenvalues()
	if err != nil {
		t.Fatal(err)
	}
	for i := range e1 {
		if math.Abs(e1[i]-e2[i]) > 1e-9 {
			t.Fatalf("λ_%d: %v vs %v", i, e1[i], e2[i])
		}
	}
	if hyb.SimSeconds <= 0 {
		t.Fatal("hybrid path must report simulated time")
	}
}

func TestReduceSymCostOnlyRules(t *testing.T) {
	a := matrix.New(64, 64)
	base, err := ReduceSym(a, SymOptions{NB: 8, CostOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	j := &obs.Journal{}
	ftr, err := ReduceSym(a, SymOptions{NB: 8, CostOnly: true, FaultTolerant: true, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if ftr.SimSeconds <= base.SimSeconds {
		t.Fatalf("FT cost-only models %vs, not above the baseline's %vs", ftr.SimSeconds, base.SimSeconds)
	}
	if j.Len() == 0 {
		t.Fatal("FT cost-only run journaled no events")
	}
	for _, e := range j.Events() {
		if e.SimTime <= 0 {
			t.Fatalf("%s event at iteration %d carries SimTime %v", e.Kind, e.Iter, e.SimTime)
		}
	}
	// Injection needs data: a hook on a cost-only run is rejected.
	if _, err := ReduceSym(a, SymOptions{NB: 8, CostOnly: true, FaultTolerant: true, Hook: &symCancelHook{}}); err == nil {
		t.Fatal("FT+CostOnly+Hook must be rejected")
	}
}

func TestRealEigenvectorsFacade(t *testing.T) {
	n := 20
	a := matrix.RandomSymmetric(n, 7)
	// A symmetric matrix's eigenvectors are all real: Eigen's VR columns.
	e, err := Eigen(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	an := a.Norm1()
	for j, v := range e.Values {
		if v.Im != 0 {
			t.Fatalf("eig %d complex: %v", j, v)
		}
		if r := e.EigResidual(a, j); r > 1e-10*an {
			t.Fatalf("eig %d residual %v", j, r)
		}
	}
}

func TestEigenFacade(t *testing.T) {
	a := matrix.FromRows([][]float64{{0, -1}, {1, 0}})
	e, err := Eigen(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if r := e.EigResidual(a, j); r > 1e-12 {
			t.Fatalf("eig %d residual %v", j, r)
		}
	}
}

func TestDeviceCountRoutesToPool(t *testing.T) {
	a := matrix.Random(96, 96, 42)
	for _, alg := range []Algorithm{Baseline, FaultTolerant} {
		// The multi-path contract is bit-identity across K (an explicit
		// one-device pool vs DeviceCount 2), and agreement with the
		// legacy single-device schedule to rounding.
		single, err := Reduce(a, Options{Algorithm: alg, NB: 16})
		if err != nil {
			t.Fatal(err)
		}
		one, err := Reduce(a, Options{Algorithm: alg, NB: 16,
			Devices: []*gpu.Device{gpu.NewIndexed(sim.K40c(), gpu.Real, 0)}})
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := Reduce(a, Options{Algorithm: alg, NB: 16, DeviceCount: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !pooled.Packed.Equal(one.Packed) {
			t.Fatalf("%v: K=2 result not bit-identical to one-device pool", alg)
		}
		if r, o := pooled.Checks(a); r > 1e-13 || o > 1e-13 {
			t.Fatalf("%v: pooled residual %v, orthogonality %v", alg, r, o)
		}
		if d := pooled.Packed.Sub(single.Packed).MaxAbs(); d > 1e-10 {
			t.Fatalf("%v: pooled differs from legacy single-device by %v", alg, d)
		}
	}
	if _, err := Reduce(a, Options{Algorithm: CPUOnly, DeviceCount: 2}); err == nil {
		t.Fatal("CPUOnly must reject a device pool")
	}
}
