package hybrid

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gpu"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sim"
)

func newDev() *gpu.Device { return gpu.New(sim.K40c(), gpu.Real) }

// lapackReduce is the reference: plain host DGEHRD.
func lapackReduce(a *matrix.Matrix, nb int) (*matrix.Matrix, []float64) {
	n := a.Rows
	packed := a.Clone()
	tau := make([]float64, max(n-1, 1))
	lapack.Dgehrd(n, nb, packed.Data, packed.Stride, tau)
	return packed, tau
}

func TestReduceMatchesLAPACK(t *testing.T) {
	for _, tc := range []struct{ n, nb int }{
		{20, 4}, {33, 8}, {64, 16}, {95, 32}, {128, 32},
	} {
		a := matrix.Random(tc.n, tc.n, uint64(tc.n))
		res, err := Reduce(a, Options{NB: tc.nb, Device: newDev()})
		if err != nil {
			t.Fatal(err)
		}
		refPacked, refTau := lapackReduce(a, tc.nb)
		if d := res.Packed.Sub(refPacked).MaxAbs(); d > 1e-11 {
			t.Fatalf("n=%d nb=%d: hybrid packed differs from LAPACK by %v", tc.n, tc.nb, d)
		}
		for i := range refTau {
			if math.Abs(res.Tau[i]-refTau[i]) > 1e-11 {
				t.Fatalf("n=%d nb=%d: tau[%d] %v vs %v", tc.n, tc.nb, i, res.Tau[i], refTau[i])
			}
		}
	}
}

func TestReduceResiduals(t *testing.T) {
	n := 100
	a := matrix.Random(n, n, 9)
	res, err := Reduce(a, Options{NB: 16, Device: newDev()})
	if err != nil {
		t.Fatal(err)
	}
	h := res.H()
	if !h.IsUpperHessenberg(0) {
		t.Fatal("H not upper Hessenberg")
	}
	q := res.Q()
	if r := lapack.FactorizationResidual(a, q, h); r > 1e-14 {
		t.Fatalf("‖A−QHQᵀ‖/(N‖A‖) = %v", r)
	}
	if r := lapack.OrthogonalityResidual(q); r > 1e-13 {
		t.Fatalf("‖QQᵀ−I‖/N = %v", r)
	}
}

func TestReduceInputNotModified(t *testing.T) {
	a := matrix.Random(40, 40, 3)
	orig := a.Clone()
	if _, err := Reduce(a, Options{NB: 8, Device: newDev()}); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(orig) {
		t.Fatal("Reduce modified its input")
	}
}

func TestReduceSmallSizes(t *testing.T) {
	for n := 0; n <= 6; n++ {
		a := matrix.Random(n, n, uint64(n+1))
		res, err := Reduce(a, Options{NB: 4, Device: newDev()})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n == 0 {
			continue
		}
		h := res.H()
		q := res.Q()
		if r := lapack.FactorizationResidual(a, q, h); r > 1e-13 {
			t.Fatalf("n=%d: residual %v", n, r)
		}
	}
}

func TestReduceErrors(t *testing.T) {
	if _, err := Reduce(matrix.New(3, 4), Options{Device: newDev()}); err == nil {
		t.Fatal("non-square must error")
	}
	if _, err := Reduce(matrix.New(3, 3), Options{}); err == nil {
		t.Fatal("missing device must error")
	}
}

// The iteration hook sees every blocked iteration's info in order, and
// Result counts the same iterations.
func TestAfterIterationHook(t *testing.T) {
	n, nb := 100, 16
	a := matrix.Random(n, n, 4)
	var iters []IterInfo
	res, err := Reduce(a, Options{NB: nb, Device: newDev(), BeforeIteration: func(it IterInfo, _ *gpu.Matrix, _ *matrix.Matrix) {
		iters = append(iters, it)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) == 0 || res.BlockedIters != len(iters) {
		t.Fatalf("hook called %d times, %d blocked iterations", len(iters), res.BlockedIters)
	}
	for i, it := range iters {
		if it.Iter != i || it.Panel != i*nb || it.NB != nb || it.N != n {
			t.Fatalf("iteration info %d wrong: %+v", i, it)
		}
	}
}

func TestSimulatedTimePositiveAndOverlapHelps(t *testing.T) {
	n := 192
	a := matrix.Random(n, n, 8)
	over, err := Reduce(a, Options{NB: 32, Device: newDev()})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Reduce(a, Options{NB: 32, Device: newDev(), DisableOverlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if over.SimSeconds <= 0 || over.ModelGFLOPS <= 0 {
		t.Fatalf("bad sim stats: %v s, %v GFLOPS", over.SimSeconds, over.ModelGFLOPS)
	}
	if serial.SimSeconds < over.SimSeconds {
		t.Fatalf("disabling overlap should not be faster: %v vs %v", serial.SimSeconds, over.SimSeconds)
	}
	// The numerical result must be identical either way.
	if !serial.Packed.Equal(over.Packed) {
		t.Fatal("overlap ablation changed the numerics")
	}
}

func TestCostOnlyMatchesRealTime(t *testing.T) {
	n := 96
	a := matrix.Random(n, n, 6)
	real1, err := Reduce(a, Options{NB: 16, Device: gpu.New(sim.K40c(), gpu.Real)})
	if err != nil {
		t.Fatal(err)
	}
	cost, err := Reduce(a, Options{NB: 16, Device: gpu.New(sim.K40c(), gpu.CostOnly)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(real1.SimSeconds-cost.SimSeconds) > 1e-9*real1.SimSeconds {
		t.Fatalf("cost-only sim time %v differs from real %v", cost.SimSeconds, real1.SimSeconds)
	}
}

func TestModelGFLOPSGrowWithN(t *testing.T) {
	// The hybrid algorithm's efficiency must improve with matrix size
	// (the shape of the paper's Figure 6 GFLOPS curves).
	small, err := Reduce(matrix.Random(64, 64, 1), Options{NB: 32, Device: gpu.New(sim.K40c(), gpu.CostOnly)})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Reduce(matrix.Random(512, 512, 1), Options{NB: 32, Device: gpu.New(sim.K40c(), gpu.CostOnly)})
	if err != nil {
		t.Fatal(err)
	}
	if big.ModelGFLOPS <= small.ModelGFLOPS {
		t.Fatalf("GFLOPS should grow with N: %v (64) vs %v (512)", small.ModelGFLOPS, big.ModelGFLOPS)
	}
}

// Property: hybrid equals unblocked LAPACK for random sizes and blocks.
func TestPropHybridEqualsLAPACK(t *testing.T) {
	f := func(seed uint64) bool {
		n := 10 + int(seed%40)
		nb := 2 + int((seed>>8)%10)
		a := matrix.RandomNormal(n, n, seed)
		res, err := Reduce(a, Options{NB: nb, Device: newDev()})
		if err != nil {
			return false
		}
		ref, _ := lapackReduce(a, nb)
		return res.Packed.Sub(ref).MaxAbs() < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
