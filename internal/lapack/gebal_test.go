package lapack

import (
	"math"
	"testing"

	"repro/internal/matrix"
)

func TestDgebalPreservesEigenvalues(t *testing.T) {
	n := 20
	a := matrix.Random(n, n, 4)
	// Badly scale some rows/columns via a diagonal similarity.
	for i := 0; i < n; i += 3 {
		s := math.Pow(2, float64(10+i))
		for j := 0; j < n; j++ {
			a.Set(i, j, a.At(i, j)*s)
			a.Set(j, i, a.At(j, i)/s)
		}
	}
	before, err := Eigenvalues(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := a.Clone()
	Dgebal(n, w.Data, w.Stride)
	after, err := Eigenvalues(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The unbalanced spectrum is the *less* accurate of the two (that is
	// why DGEEV balances), so only same-eigenvalue agreement at the
	// accuracy the ill-scaling permits can be asserted.
	for i := range before {
		scaleTol := 1e-5 * (1 + math.Abs(before[i].Re))
		if math.Abs(before[i].Re-after[i].Re) > scaleTol || math.Abs(before[i].Im-after[i].Im) > scaleTol {
			t.Fatalf("eig %d changed: %v vs %v", i, before[i], after[i])
		}
	}
}

func TestDgebalEqualizesNorms(t *testing.T) {
	n := 16
	a := matrix.Random(n, n, 7)
	// Scale row 0 up by 2^20 (and column 0 down) to unbalance.
	for j := 0; j < n; j++ {
		a.Set(0, j, a.At(0, j)*math.Pow(2, 20))
		a.Set(j, 0, a.At(j, 0)/math.Pow(2, 20))
	}
	ratio := func(m *matrix.Matrix, i int) float64 {
		r, c := 0.0, 0.0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			r += math.Abs(m.At(i, j))
			c += math.Abs(m.At(j, i))
		}
		return r / c
	}
	before := ratio(a, 0)
	w := a.Clone()
	Dgebal(n, w.Data, w.Stride)
	after := ratio(w, 0)
	if !(after < before/1e3) {
		t.Fatalf("balance did not equalize: ratio %v -> %v", before, after)
	}
}

func TestDgebalScaleVector(t *testing.T) {
	n := 8
	a := matrix.Random(n, n, 9)
	orig := a.Clone()
	scale := Dgebal(n, a.Data, a.Stride)
	if len(scale) != n {
		t.Fatalf("scale length %d", len(scale))
	}
	// Verify A_balanced = D⁻¹·A·D with the returned scale.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := orig.At(i, j) * scale[j] / scale[i]
			if math.Abs(a.At(i, j)-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("(%d,%d): %v, want %v", i, j, a.At(i, j), want)
			}
		}
	}
}

func TestDgebalTrivial(t *testing.T) {
	if s := Dgebal(0, nil, 1); len(s) != 0 {
		t.Fatal("n=0")
	}
	a := []float64{5}
	if s := Dgebal(1, a, 1); s[0] != 1 || a[0] != 5 {
		t.Fatal("n=1 must be untouched")
	}
	// Zero row/column: must not divide by zero.
	z := matrix.New(3, 3)
	z.Set(0, 1, 1)
	Dgebal(3, z.Data, z.Stride)
}

// badlyScaled returns a diagonal matrix with eigenvalues 1..12 under an
// ill-conditioned diagonal similarity, plus a dense perturbation that the
// similarity amplifies, and the planted eigenvalues.
func badlyScaled() (*matrix.Matrix, []float64) {
	n := 12
	d := matrix.New(n, n)
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i + 1)
		d.Set(i, i, want[i])
	}
	a := d.Clone()
	for i := 0; i < n; i++ {
		s := math.Pow(2, float64(3*i))
		for j := 0; j < n; j++ {
			a.Set(i, j, a.At(i, j)*s)
			a.Set(j, i, a.At(j, i)/s)
		}
	}
	p := matrix.Random(n, n, 5)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Add(i, j, 1e-13*p.At(i, j)*math.Pow(2, float64(3*i))/math.Pow(2, float64(3*j)))
		}
	}
	return a, want
}

func TestBalancedEigenvaluesMoreAccurate(t *testing.T) {
	// Badly scaled similarity of a known diagonal: balancing recovers the
	// spectrum more accurately than the raw path.
	a, want := badlyScaled()
	n := a.Rows
	bal, err := BalancedEigenvalues(a.Data, n, a.Stride, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(bal[i].Re-want[i]) > 1e-6 {
			t.Fatalf("balanced eig %d = %v, want %v", i, bal[i].Re, want[i])
		}
	}
}
