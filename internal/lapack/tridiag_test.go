package lapack

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// tridiagReduce runs Dsytd2 or Dsytrd on a copy and returns (d, e, Q).
func tridiagReduce(a *matrix.Matrix, nb int, blocked bool) ([]float64, []float64, *matrix.Matrix) {
	n := a.Rows
	w := a.Clone()
	d := make([]float64, n)
	e := make([]float64, max(n-1, 1))
	tau := make([]float64, max(n-1, 1))
	if blocked {
		Dsytrd(n, nb, w.Data, w.Stride, d, e, tau)
	} else {
		Dsytd2(n, w.Data, w.Stride, d, e, tau)
	}
	// The reflector layout matches the Hessenberg packed layout, so
	// Dorghr forms Q = H(0)···H(n-3) directly.
	q := Dorghr(n, w.Data, w.Stride, tau)
	return d, e, q
}

// tridiagResidual returns ‖A − Q·T·Qᵀ‖₁/(N‖A‖₁).
func tridiagResidual(a *matrix.Matrix, d, e []float64, q *matrix.Matrix) float64 {
	n := a.Rows
	t := matrix.New(n, n)
	for i := 0; i < n; i++ {
		t.Set(i, i, d[i])
		if i > 0 {
			t.Set(i, i-1, e[i-1])
			t.Set(i-1, i, e[i-1])
		}
	}
	return FactorizationResidual(a, q, t)
}

func TestDsytd2Reduces(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 25} {
		a := matrix.RandomSymmetric(n, uint64(n))
		d, e, q := tridiagReduce(a, 0, false)
		if r := tridiagResidual(a, d, e, q); r > 1e-14 {
			t.Fatalf("n=%d: residual %v", n, r)
		}
		if r := OrthogonalityResidual(q); r > 1e-14*float64(n) {
			t.Fatalf("n=%d: Q not orthogonal: %v", n, r)
		}
	}
}

func TestDsytd2PreservesTrace(t *testing.T) {
	n := 30
	a := matrix.RandomSymmetric(n, 3)
	d, _, _ := tridiagReduce(a, 0, false)
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	if math.Abs(sum-a.Trace()) > 1e-11 {
		t.Fatalf("trace %v vs Σd %v", a.Trace(), sum)
	}
}

func TestDsytrdMatchesUnblocked(t *testing.T) {
	for _, tc := range []struct{ n, nb int }{
		{20, 4}, {33, 8}, {64, 16}, {65, 16}, {50, 32},
	} {
		a := matrix.RandomSymmetric(tc.n, uint64(tc.n*7))
		d1, e1, _ := tridiagReduce(a, 0, false)
		d2, e2, _ := tridiagReduce(a, tc.nb, true)
		for i := 0; i < tc.n; i++ {
			if math.Abs(d1[i]-d2[i]) > 1e-11 {
				t.Fatalf("n=%d nb=%d: d[%d] %v vs %v", tc.n, tc.nb, i, d2[i], d1[i])
			}
		}
		for i := 0; i < tc.n-1; i++ {
			if math.Abs(e1[i]-e2[i]) > 1e-11 {
				t.Fatalf("n=%d nb=%d: e[%d] %v vs %v", tc.n, tc.nb, i, e2[i], e1[i])
			}
		}
	}
}

func TestDsytrdResidual(t *testing.T) {
	n := 100
	a := matrix.RandomSymmetric(n, 9)
	d, e, q := tridiagReduce(a, 16, true)
	if r := tridiagResidual(a, d, e, q); r > 1e-14 {
		t.Fatalf("residual %v", r)
	}
}

func TestDsterfDiagonal(t *testing.T) {
	d := []float64{3, -1, 2}
	e := []float64{0, 0}
	if err := Dsterf(3, d, e); err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, 2, 3}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-14 {
			t.Fatalf("d = %v", d)
		}
	}
}

func TestDsterfLaplacianSpectrum(t *testing.T) {
	// tri(-1, 2, -1): eigenvalues 2-2cos(kπ/(n+1)).
	n := 40
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	for i := range e {
		e[i] = -1
	}
	if err := Dsterf(n, d, e); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
		if math.Abs(d[k-1]-want) > 1e-12 {
			t.Fatalf("λ_%d = %v, want %v", k, d[k-1], want)
		}
	}
}

func TestDsterfTinySizes(t *testing.T) {
	if err := Dsterf(0, nil, nil); err != nil {
		t.Fatal(err)
	}
	d := []float64{5}
	if err := Dsterf(1, d, nil); err != nil || d[0] != 5 {
		t.Fatalf("n=1: %v %v", d, err)
	}
	d2 := []float64{0, 0}
	e2 := []float64{1}
	if err := Dsterf(2, d2, e2); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d2[0]+1) > 1e-14 || math.Abs(d2[1]-1) > 1e-14 {
		t.Fatalf("2x2 spectrum %v, want [-1 1]", d2)
	}
}

func TestSymEigenvaluesEndToEnd(t *testing.T) {
	// Dense symmetric matrix with a planted spectrum.
	n := 40
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i) - 10.5
	}
	diag := matrix.New(n, n)
	for i, v := range want {
		diag.Set(i, i, v)
	}
	_, _, q := reduceBlocked(matrix.Random(n, n, 77), 8) // random orthogonal
	tmp := matrix.New(n, n)
	a := matrix.New(n, n)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, q.Data, q.Stride, diag.Data, diag.Stride, 0, tmp.Data, tmp.Stride)
	blas.Dgemm(blas.NoTrans, blas.Trans, n, n, n, 1, tmp.Data, tmp.Stride, q.Data, q.Stride, 0, a.Data, a.Stride)

	got, err := SymEigenvalues(a.Data, n, a.Stride, 8)
	if err != nil {
		t.Fatal(err)
	}
	sort.Float64s(want)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("λ_%d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSymVsGeneralEigensolverAgree(t *testing.T) {
	// The symmetric path (Dsytrd+Dsterf) and the general path
	// (Dgehrd+Dhseqr) must agree on a symmetric matrix.
	n := 30
	a := matrix.RandomSymmetric(n, 5)
	sym, err := SymEigenvalues(a.Data, n, a.Stride, 8)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Eigenvalues(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sym {
		if math.Abs(gen[i].Im) > 1e-8 {
			t.Fatalf("general path produced complex λ for symmetric input: %v", gen[i])
		}
		if math.Abs(sym[i]-gen[i].Re) > 1e-9 {
			t.Fatalf("λ_%d: sym %v vs general %v", i, sym[i], gen[i].Re)
		}
	}
}

// Property: blocked tridiagonalization is backward stable and preserves
// the trace for random symmetric matrices.
func TestPropDsytrdStable(t *testing.T) {
	f := func(seed uint64) bool {
		n := 6 + int(seed%30)
		nb := 2 + int((seed>>8)%8)
		a := matrix.RandomSymmetric(n, seed)
		d, e, q := tridiagReduce(a, nb, true)
		if tridiagResidual(a, d, e, q) > 1e-13 {
			return false
		}
		sum := 0.0
		for _, v := range d {
			sum += v
		}
		return math.Abs(sum-a.Trace()) < 1e-10*(1+math.Abs(a.Trace()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTridiagFromPacked(t *testing.T) {
	d := []float64{1, 2, 3}
	e := []float64{4, 5}
	m := TridiagFromPacked(3, d, e)
	if m[0][0] != 1 || m[1][0] != 4 || m[0][1] != 4 || m[2][1] != 5 || m[2][2] != 3 {
		t.Fatalf("tridiag build wrong: %v", m)
	}
	if m[2][0] != 0 {
		t.Fatal("off-band element nonzero")
	}
}
