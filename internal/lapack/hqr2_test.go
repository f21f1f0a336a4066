package lapack

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/matrix"
)

func TestEigenRotationMatrix(t *testing.T) {
	// [[0,-1],[1,0]]: eigenpairs (±i, [1, ∓i]/√2).
	a := matrix.FromRows([][]float64{{0, -1}, {1, 0}})
	e, err := Eigen(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if math.Abs(e.Values[j].Re) > 1e-13 || math.Abs(math.Abs(e.Values[j].Im)-1) > 1e-13 {
			t.Fatalf("eig %d = %v", j, e.Values[j])
		}
		if r := e.EigResidual(a, j); r > 1e-12 {
			t.Fatalf("eig %d residual %v", j, r)
		}
	}
}

func TestEigenValuesMatchDhseqr(t *testing.T) {
	// The Schur path must agree with the eigenvalue-only path.
	n := 30
	a := matrix.RandomNormal(n, n, 17)
	e, err := Eigen(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Eigenvalues(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]Eig(nil), e.Values...)
	SortEigs(got)
	for i := range plain {
		if math.Abs(got[i].Re-plain[i].Re) > 1e-9 || math.Abs(got[i].Im-plain[i].Im) > 1e-9 {
			t.Fatalf("eig %d: schur %v vs hqr %v", i, got[i], plain[i])
		}
	}
}

func TestEigenResidualsGeneral(t *testing.T) {
	// Every eigenpair — real and complex — must satisfy A·x = λ·x.
	for _, seed := range []uint64{1, 2, 3} {
		n := 25
		a := matrix.RandomNormal(n, n, seed)
		e, err := Eigen(a, 8)
		if err != nil {
			t.Fatal(err)
		}
		an := a.Norm1()
		complexSeen := 0
		for j := 0; j < n; j++ {
			if e.Values[j].Im != 0 {
				complexSeen++
			}
			if r := e.EigResidual(a, j); r > 1e-9*an {
				t.Fatalf("seed %d eig %d (λ=%v+%vi): residual %v", seed, j, e.Values[j].Re, e.Values[j].Im, r)
			}
		}
		if seed == 1 && complexSeen == 0 {
			t.Log("note: no complex pairs in this draw")
		}
	}
}

func TestEigenSymmetric(t *testing.T) {
	n := 20
	a := matrix.RandomSymmetric(n, 9)
	e, err := Eigen(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		if e.Values[j].Im != 0 {
			t.Fatalf("symmetric matrix produced complex λ %v", e.Values[j])
		}
		if r := e.EigResidual(a, j); r > 1e-10*a.Norm1() {
			t.Fatalf("eig %d residual %v", j, r)
		}
	}
}

func TestEigenCompanionComplexRoots(t *testing.T) {
	// x⁴ = 1: roots ±1, ±i.
	n := 4
	a := matrix.New(n, n)
	for i := 1; i < n; i++ {
		a.Set(i, i-1, 1)
	}
	a.Set(0, n-1, 1) // companion of x⁴ − 1
	e, err := Eigen(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for j := 0; j < n; j++ {
		got = append(got, math.Hypot(e.Values[j].Re, e.Values[j].Im))
		if r := e.EigResidual(a, j); r > 1e-10 {
			t.Fatalf("eig %d (%v+%vi): residual %v", j, e.Values[j].Re, e.Values[j].Im, r)
		}
	}
	sort.Float64s(got)
	for _, m := range got {
		if math.Abs(m-1) > 1e-10 {
			t.Fatalf("root magnitudes %v, want all 1", got)
		}
	}
}

func TestEigenTrivial(t *testing.T) {
	if _, err := Eigen(matrix.New(2, 3), 4); err == nil {
		t.Fatal("non-square accepted")
	}
	e, err := Eigen(matrix.FromRows([][]float64{{7}}), 4)
	if err != nil || e.Values[0].Re != 7 {
		t.Fatalf("1x1: %v %v", e, err)
	}
	z, err := Eigen(matrix.New(3, 3), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range z.Values {
		if v.Re != 0 || v.Im != 0 {
			t.Fatalf("zero matrix eig %v", v)
		}
	}
}

func TestSchurDecomposition(t *testing.T) {
	// A = Z·T·Zᵀ with T quasi-triangular and Z orthogonal.
	n := 28
	a := matrix.RandomNormal(n, n, 6)
	packed := a.Clone()
	tau := make([]float64, n-1)
	Dgehrd(n, 8, packed.Data, packed.Stride, tau)
	h := HessFromPacked(n, packed.Data, packed.Stride)
	z := Dorghr(n, packed.Data, packed.Stride, tau)
	wr := make([]float64, n)
	wi := make([]float64, n)
	if err := Dhseqr(n, h, z, wr, wi); err != nil {
		t.Fatal(err)
	}
	// Quasi-triangular: nothing below the first subdiagonal, and any
	// subdiagonal entry belongs to a 2×2 complex block.
	for j := 0; j < n; j++ {
		for i := j + 2; i < n; i++ {
			if math.Abs(h.At(i, j)) > 1e-10 {
				t.Fatalf("T(%d,%d) = %v below quasi-triangular band", i, j, h.At(i, j))
			}
		}
	}
	for i := 1; i < n; i++ {
		if math.Abs(h.At(i, i-1)) > 1e-10 && wi[i-1] == 0 {
			t.Fatalf("subdiagonal at %d without a complex pair", i)
		}
	}
	if r := OrthogonalityResidual(z); r > 1e-12 {
		t.Fatalf("Schur vectors not orthogonal: %v", r)
	}
	if r := FactorizationResidual(a, z, h); r > 1e-13 {
		t.Fatalf("‖A − Z·T·Zᵀ‖/(N‖A‖) = %v", r)
	}
	// Diagonal blocks carry the eigenvalues: traces must agree.
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += wr[i]
	}
	if math.Abs(sum-a.Trace()) > 1e-9*(1+math.Abs(a.Trace())) {
		t.Fatalf("Σλ %v vs trace %v", sum, a.Trace())
	}
}

// Property: every eigenpair of random matrices satisfies its defining
// equation, real and complex alike.
func TestPropEigenResiduals(t *testing.T) {
	f := func(seed uint64) bool {
		n := 8 + int(seed%20)
		a := matrix.RandomNormal(n, n, seed)
		e, err := Eigen(a, 4+int(seed%8))
		if err != nil {
			return false
		}
		an := a.Norm1()
		for j := 0; j < n; j++ {
			if e.EigResidual(a, j) > 1e-8*an {
				t.Logf("seed %d eig %d: residual %v", seed, j, e.EigResidual(a, j))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// realEigenvectors returns Eigen's real eigenpairs of a with the vectors
// scaled to unit length, and the number of complex eigenvalues.
func realEigenvectors(t *testing.T, a *matrix.Matrix, nb int) (vals []float64, vecs [][]float64, complexCount int) {
	t.Helper()
	e, err := Eigen(a, nb)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	for j, v := range e.Values {
		if v.Im != 0 {
			complexCount++
			continue
		}
		x := append([]float64(nil), e.VR.Col(j)...)
		blas.Dscal(n, 1/blas.Dnrm2(n, x, 1), x, 1)
		vals = append(vals, v.Re)
		vecs = append(vecs, x)
	}
	return vals, vecs, complexCount
}

// eigResidual returns ‖A·x − λ·x‖₂ for unit x.
func eigResidual(a *matrix.Matrix, lambda float64, x []float64) float64 {
	n := a.Rows
	y := make([]float64, n)
	blas.Dgemv(blas.NoTrans, n, n, 1, a.Data, a.Stride, x, 1, 0, y, 1)
	blas.Daxpy(n, -lambda, x, 1, y, 1)
	return blas.Dnrm2(n, y, 1)
}

func TestEigenvectorKnownTriangular(t *testing.T) {
	// Upper triangular: eigenvalues on the diagonal, first eigenvector e1.
	h := matrix.FromRows([][]float64{
		{3, 1, 2},
		{0, 1, 4},
		{0, 0, -2},
	})
	vals, vecs, _ := realEigenvectors(t, h, 4)
	for k, v := range vals {
		if r := eigResidual(h, v, vecs[k]); r > 1e-12 {
			t.Fatalf("λ=%v: residual %v", v, r)
		}
		if v == 3 && math.Abs(math.Abs(vecs[k][0])-1) > 1e-10 {
			t.Fatalf("eigenvector for λ=3 should be ±e1, got %v", vecs[k])
		}
	}
}

func TestRealEigenvectorsSymmetric(t *testing.T) {
	// Symmetric matrices have a full set of real eigenpairs.
	n := 30
	a := matrix.RandomSymmetric(n, 8)
	vals, vecs, complexCount := realEigenvectors(t, a, 8)
	if complexCount != 0 {
		t.Fatalf("symmetric matrix produced %d complex eigenvalues", complexCount)
	}
	if len(vals) != n {
		t.Fatalf("%d eigenpairs, want %d", len(vals), n)
	}
	an := a.Norm1()
	for k, v := range vals {
		if r := eigResidual(a, v, vecs[k]); r > 1e-10*an {
			t.Fatalf("λ=%v: ‖Ax−λx‖ = %v", v, r)
		}
	}
}

func TestRealEigenvectorsGeneral(t *testing.T) {
	// Random general matrix: real eigenvalues get real vectors.
	n := 24
	a := matrix.RandomNormal(n, n, 5)
	vals, vecs, complexCount := realEigenvectors(t, a, 8)
	if len(vals)+complexCount != n {
		t.Fatalf("pairs %d + complex %d != %d", len(vals), complexCount, n)
	}
	an := a.Norm1()
	for k, v := range vals {
		if r := eigResidual(a, v, vecs[k]); r > 1e-9*an {
			t.Fatalf("λ=%v: residual %v", v, r)
		}
	}
}

func TestRealEigenvectorsPlantedBasis(t *testing.T) {
	// Diagonal matrix conjugated by orthogonal Q: eigenvectors must match
	// Q's columns up to sign.
	n := 16
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(2*i + 1) // well separated
	}
	d := matrix.New(n, n)
	for i, v := range want {
		d.Set(i, i, v)
	}
	_, _, q := reduceBlocked(matrix.Random(n, n, 44), 4)
	tmp := matrix.New(n, n)
	a := matrix.New(n, n)
	mul(tmp, q, d)
	mulT(a, tmp, q)

	vals, vecs, _ := realEigenvectors(t, a, 4)
	if len(vals) != n {
		t.Fatalf("%d real eigenpairs, want %d", len(vals), n)
	}
	for k, v := range vals {
		// Find the planted eigenvalue and compare the vector to Q's column.
		p := -1
		for i, w := range want {
			if math.Abs(w-v) < 1e-8 {
				p = i
			}
		}
		if p < 0 {
			t.Fatalf("unexpected eigenvalue %v", v)
		}
		dot := blas.Ddot(n, vecs[k], 1, q.Col(p), 1)
		if math.Abs(math.Abs(dot)-1) > 1e-9 {
			t.Fatalf("λ=%v: |<x, q_k>| = %v, want 1", v, math.Abs(dot))
		}
	}
}

func TestRealEigenvectorsNonSquare(t *testing.T) {
	if _, err := Eigen(matrix.New(2, 3), 4); err == nil {
		t.Fatal("non-square accepted")
	}
}
