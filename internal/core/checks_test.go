package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
)

// denseResidual is ‖A − Q·H·Qᵀ‖₁/(N‖A‖₁) by the textbook formula: two
// full n×n products and the dense difference.
func denseResidual(a, q, h *matrix.Matrix) float64 {
	n := a.Rows
	if n == 0 {
		return 0
	}
	qh := matrix.New(n, n)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, q.Data, q.Stride, h.Data, h.Stride, 0, qh.Data, qh.Stride)
	rec := matrix.New(n, n)
	blas.Dgemm(blas.NoTrans, blas.Trans, n, n, n, 1, qh.Data, qh.Stride, q.Data, q.Stride, 0, rec.Data, rec.Stride)
	den := float64(n) * a.Norm1()
	if den == 0 {
		return a.Sub(rec).Norm1()
	}
	return a.Sub(rec).Norm1() / den
}

// denseOrthogonality is ‖Q·Qᵀ − I‖₁/N with the full product.
func denseOrthogonality(q *matrix.Matrix) float64 {
	n := q.Rows
	if n == 0 {
		return 0
	}
	qqt := matrix.New(n, n)
	blas.Dgemm(blas.NoTrans, blas.Trans, n, n, n, 1, q.Data, q.Stride, q.Data, q.Stride, 0, qqt.Data, qqt.Stride)
	for i := 0; i < n; i++ {
		qqt.Add(i, i, -1)
	}
	return qqt.Norm1() / float64(n)
}

// checksSizes straddle the verification and Dorghr block widths.
var checksSizes = []int{0, 1, 2, 3, 4, 31, 32, 33, 34, 65, 100, 257}

// closeMetric accepts a structure-aware metric that sums in another order
// than the dense formula: relative agreement for an O(1) value, and an
// absolute slack of 1e-18 for a correct factorization, whose metrics sit
// near 1e-17 and differ from the dense ones by at most about 2e-20.
func closeMetric(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*want+1e-18
}

// TestResidualsMatchDense holds both lapack residuals to the dense
// formulas for three shapes of h: a dense one (not Hessenberg, with an
// unrelated, non-orthogonal q), the tridiagonal T of ReduceSym, and the
// real Schur form Dhseqr leaves. Each factorization is also checked
// against an unrelated A, where the residual is O(1).
func TestResidualsMatchDense(t *testing.T) {
	for _, n := range checksSizes {
		type factor struct {
			name    string
			a, q, h *matrix.Matrix
		}
		var fs []factor
		fs = append(fs, factor{"dense", matrix.Random(n, n, 1), matrix.RandomNormal(n, n, 2), matrix.RandomNormal(n, n, 3)})

		sa := matrix.RandomSymmetric(n, 4)
		if n > 0 {
			sym, err := ReduceSym(sa, SymOptions{NB: 16})
			if err != nil {
				t.Fatalf("n=%d: ReduceSym: %v", n, err)
			}
			fs = append(fs, factor{"tridiagonal", sa, sym.Q(), sym.T()})

			ha := matrix.RandomNormal(n, n, 5)
			res, err := Reduce(ha, Options{NB: 16})
			if err != nil {
				t.Fatalf("n=%d: Reduce: %v", n, err)
			}
			schur, z := res.H(), res.Q()
			if err := lapack.Dhseqr(n, schur, z, make([]float64, n), make([]float64, n)); err != nil {
				t.Fatalf("n=%d: Dhseqr: %v", n, err)
			}
			fs = append(fs, factor{"schur", ha, z, schur})
		}
		unrelated := matrix.Random(n, n, 6)
		for _, f := range fs {
			for _, a := range []*matrix.Matrix{f.a, unrelated} {
				got, want := lapack.FactorizationResidual(a, f.q, f.h), denseResidual(a, f.q, f.h)
				if !closeMetric(got, want) {
					t.Errorf("n=%d %s: residual %.17g, dense %.17g", n, f.name, got, want)
				}
			}
			got, want := lapack.OrthogonalityResidual(f.q), denseOrthogonality(f.q)
			if !closeMetric(got, want) {
				t.Errorf("n=%d %s: orthogonality %.17g, dense %.17g", n, f.name, got, want)
			}
		}
	}
}

// TestResidualsPropagateNaN: a NaN in Q must make both metrics NaN, so a
// poisoned factorization can never pass a "residual <= tol" check. A
// column sum that is NaN is not dropped from the maximum.
func TestResidualsPropagateNaN(t *testing.T) {
	const n = 40
	a := matrix.Random(n, n, 9)
	res, err := Reduce(a, Options{NB: 16})
	if err != nil {
		t.Fatal(err)
	}
	q := res.Q()
	q.Set(n-1, 3, math.NaN())
	if r, o := lapack.FactorizationResidual(a, q, res.H()), lapack.OrthogonalityResidual(q); !math.IsNaN(r) || !math.IsNaN(o) {
		t.Fatalf("residual %v, orthogonality %v with a NaN in Q", r, o)
	}
}

// TestChecksMatchLapack pins Checks to the lapack functions applied to
// Q() and H() (T() on the symmetric path), bit for bit.
func TestChecksMatchLapack(t *testing.T) {
	const n = 100
	a := matrix.Random(n, n, 7)
	res, err := Reduce(a, Options{NB: 16})
	if err != nil {
		t.Fatal(err)
	}
	r, o := res.Checks(a)
	if r != lapack.FactorizationResidual(a, res.Q(), res.H()) || o != lapack.OrthogonalityResidual(res.Q()) {
		t.Errorf("Result.Checks = %v, %v differs from the lapack functions", r, o)
	}
	sa := matrix.RandomSymmetric(n, 7)
	sym, err := ReduceSym(sa, SymOptions{NB: 16, FaultTolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	r, o = sym.Checks(sa)
	if r != lapack.FactorizationResidual(sa, sym.Q(), sym.T()) || o != lapack.OrthogonalityResidual(sym.Q()) {
		t.Errorf("SymResult.Checks = %v, %v differs from the lapack functions", r, o)
	}
}

// TestVerificationReadOnly runs Q() and Checks on one Result and one
// SymResult from two goroutines at once (a served result is shared by
// every cache hit): under -race this fails if forming Q writes to Packed,
// and afterwards Packed must hold its original bits.
func TestVerificationReadOnly(t *testing.T) {
	const n = 70
	a := matrix.Random(n, n, 8)
	res, err := Reduce(a, Options{NB: 16})
	if err != nil {
		t.Fatal(err)
	}
	sa := matrix.RandomSymmetric(n, 8)
	sym, err := ReduceSym(sa, SymOptions{NB: 16})
	if err != nil {
		t.Fatal(err)
	}
	packed, symPacked := MatrixDigest(res.Packed), MatrixDigest(sym.Packed)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.Q()
			sym.Q()
			if r, o := res.Checks(a); r > 1e-13 || o > 1e-13 {
				t.Errorf("residual %v, orthogonality %v", r, o)
			}
			if r, o := sym.Checks(sa); r > 1e-13 || o > 1e-13 {
				t.Errorf("sym residual %v, orthogonality %v", r, o)
			}
		}()
	}
	wg.Wait()
	if MatrixDigest(res.Packed) != packed || MatrixDigest(sym.Packed) != symPacked {
		t.Fatal("forming Q changed the bits of Packed")
	}
}

// BenchmarkChecks times a served job's verification at N=1024: one Q and
// both residuals.
func BenchmarkChecks(b *testing.B) {
	const n = 1024
	a := matrix.Random(n, n, 1)
	res, err := Reduce(a, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkResidual, _ = res.Checks(a)
	}
}

var sinkResidual float64
