package hybrid

import (
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sim"
)

func TestReduceSymMatchesCPU(t *testing.T) {
	for _, tc := range []struct{ n, nb int }{{64, 8}, {100, 16}, {150, 32}, {97, 16}} {
		a := matrix.RandomSymmetric(tc.n, uint64(tc.n))
		res, err := ReduceSym(a, Options{NB: tc.nb, Device: newDev()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		d := make([]float64, tc.n)
		e := make([]float64, tc.n-1)
		tau := make([]float64, tc.n-1)
		ref := a.Clone()
		lapack.Dsytrd(tc.n, tc.nb, ref.Data, ref.Stride, d, e, tau)
		for i := 0; i < tc.n; i++ {
			if math.Abs(res.D[i]-d[i]) > 1e-11 {
				t.Fatalf("n=%d nb=%d: d[%d] %v vs %v", tc.n, tc.nb, i, res.D[i], d[i])
			}
		}
		for i := 0; i < tc.n-1; i++ {
			if math.Abs(res.E[i]-e[i]) > 1e-11 {
				t.Fatalf("n=%d nb=%d: e[%d] %v vs %v", tc.n, tc.nb, i, res.E[i], e[i])
			}
			if math.Abs(res.Tau[i]-tau[i]) > 1e-11 {
				t.Fatalf("n=%d nb=%d: tau[%d] %v vs %v", tc.n, tc.nb, i, res.Tau[i], tau[i])
			}
		}
	}
}

func TestReduceSymResidual(t *testing.T) {
	n := 120
	a := matrix.RandomSymmetric(n, 3)
	res, err := ReduceSym(a, Options{NB: 16, Device: newDev()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := lapack.FactorizationResidual(a, res.Q(), res.T()); r > 1e-14 {
		t.Fatalf("‖A−QTQᵀ‖/(N‖A‖) = %v", r)
	}
	if r := lapack.OrthogonalityResidual(res.Q()); r > 1e-13 {
		t.Fatalf("orthogonality %v", r)
	}
}

func TestReduceSymInputUnchangedAndTiny(t *testing.T) {
	a := matrix.RandomSymmetric(50, 4)
	orig := a.Clone()
	if _, err := ReduceSym(a, Options{NB: 8, Device: newDev()}, nil); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(orig) {
		t.Fatal("input modified")
	}
	for n := 0; n <= 3; n++ {
		if _, err := ReduceSym(matrix.RandomSymmetric(n, 1), Options{NB: 4, Device: newDev()}, nil); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	if _, err := ReduceSym(matrix.New(2, 3), Options{Device: newDev()}, nil); err == nil {
		t.Fatal("non-square accepted")
	}
	if _, err := ReduceSym(matrix.New(2, 2), Options{}, nil); err == nil {
		t.Fatal("nil device accepted")
	}
}

func TestReduceSymEigenvalues(t *testing.T) {
	// Laplacian spectrum through the hybrid path.
	n := 100
	lap := matrix.New(n, n)
	for i := 0; i < n; i++ {
		lap.Set(i, i, 2)
		if i > 0 {
			lap.Set(i, i-1, -1)
			lap.Set(i-1, i, -1)
		}
	}
	// Densify with an orthogonal similarity.
	g, err := Reduce(matrix.Random(n, n, 9), Options{NB: 16, Device: newDev()})
	if err != nil {
		t.Fatal(err)
	}
	q := g.Q()
	tmp := matrix.New(n, n)
	dense := matrix.New(n, n)
	mulNN(tmp, q, lap)
	mulNT(dense, tmp, q)

	res, err := ReduceSym(dense, Options{NB: 16, Device: newDev()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := append([]float64(nil), res.D...)
	e := append([]float64(nil), res.E...)
	if err := lapack.Dsterf(n, d, e); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
		if math.Abs(d[k-1]-want) > 1e-10 {
			t.Fatalf("λ_%d = %v, want %v", k, d[k-1], want)
		}
	}
}

func TestReduceSymCostOnlyParity(t *testing.T) {
	n := 120
	a := matrix.RandomSymmetric(n, 5)
	r1, err := ReduceSym(a, Options{NB: 16, Device: gpu.New(sim.K40c(), gpu.Real)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ReduceSym(a, Options{NB: 16, Device: gpu.New(sim.K40c(), gpu.CostOnly)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.SimSeconds-r2.SimSeconds) > 1e-9*r1.SimSeconds {
		t.Fatalf("cost-only time %v differs from real %v", r2.SimSeconds, r1.SimSeconds)
	}
	if r1.ModelGFLOPS <= 0 {
		t.Fatalf("GFLOPS %v", r1.ModelGFLOPS)
	}
}

func mulNN(dst, a, b *matrix.Matrix) {
	for i := 0; i < dst.Rows; i++ {
		for j := 0; j < dst.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			dst.Set(i, j, s)
		}
	}
}

func mulNT(dst, a, b *matrix.Matrix) {
	for i := 0; i < dst.Rows; i++ {
		for j := 0; j < dst.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			dst.Set(i, j, s)
		}
	}
}
