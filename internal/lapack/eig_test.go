package lapack

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/matrix"
)

func TestDhseqrDiagonal(t *testing.T) {
	n := 5
	h := matrix.New(n, n)
	want := []float64{-3, -1, 0, 2, 7}
	for i, v := range want {
		h.Set(i, i, v)
	}
	wr := make([]float64, n)
	wi := make([]float64, n)
	if err := Dhseqr(n, h, nil, wr, wi); err != nil {
		t.Fatal(err)
	}
	sort.Float64s(wr)
	for i := range want {
		if math.Abs(wr[i]-want[i]) > 1e-13 || wi[i] != 0 {
			t.Fatalf("eig %d: %v+%vi, want %v", i, wr[i], wi[i], want[i])
		}
	}
}

func TestDhseqrKnown2x2Complex(t *testing.T) {
	// [[0,-1],[1,0]] has eigenvalues ±i.
	h := matrix.FromRows([][]float64{{0, -1}, {1, 0}})
	wr := make([]float64, 2)
	wi := make([]float64, 2)
	if err := Dhseqr(2, h, nil, wr, wi); err != nil {
		t.Fatal(err)
	}
	if math.Abs(wr[0]) > 1e-14 || math.Abs(wr[1]) > 1e-14 {
		t.Fatalf("real parts %v, want 0", wr)
	}
	ims := []float64{wi[0], wi[1]}
	sort.Float64s(ims)
	if math.Abs(ims[0]+1) > 1e-14 || math.Abs(ims[1]-1) > 1e-14 {
		t.Fatalf("imag parts %v, want ±1", wi)
	}
}

func TestDhseqrCompanionMatrix(t *testing.T) {
	// Companion matrix of (x-1)(x-2)(x-3)(x-4) = x⁴ -10x³ +35x² -50x +24.
	coeff := []float64{24, -50, 35, -10} // a0..a3 of monic polynomial
	n := 4
	h := matrix.New(n, n)
	for i := 1; i < n; i++ {
		h.Set(i, i-1, 1)
	}
	for i := 0; i < n; i++ {
		h.Set(i, n-1, -coeff[i])
	}
	wr := make([]float64, n)
	wi := make([]float64, n)
	if err := Dhseqr(n, h, nil, wr, wi); err != nil {
		t.Fatal(err)
	}
	sort.Float64s(wr)
	for i, want := range []float64{1, 2, 3, 4} {
		if math.Abs(wr[i]-want) > 1e-10 || math.Abs(wi[i]) > 1e-10 {
			t.Fatalf("root %d: %v+%vi, want %v", i, wr[i], wi[i], want)
		}
	}
}

func TestDhseqrTridiagonalKnownSpectrum(t *testing.T) {
	// Symmetric tridiagonal with 2 on the diagonal and -1 off-diagonal has
	// eigenvalues 2 - 2cos(kπ/(n+1)).
	n := 12
	h := matrix.New(n, n)
	for i := 0; i < n; i++ {
		h.Set(i, i, 2)
		if i > 0 {
			h.Set(i, i-1, -1)
			h.Set(i-1, i, -1)
		}
	}
	wr := make([]float64, n)
	wi := make([]float64, n)
	if err := Dhseqr(n, h, nil, wr, wi); err != nil {
		t.Fatal(err)
	}
	sort.Float64s(wr)
	for k := 1; k <= n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
		if math.Abs(wr[k-1]-want) > 1e-10 {
			t.Fatalf("eig %d: %v, want %v", k, wr[k-1], want)
		}
	}
	for _, im := range wi {
		if math.Abs(im) > 1e-10 {
			t.Fatalf("symmetric matrix produced complex eigenvalue %v", im)
		}
	}
}

func TestDhseqrEmptyAndOne(t *testing.T) {
	if err := Dhseqr(0, nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	h := matrix.FromRows([][]float64{{42}})
	wr := make([]float64, 1)
	wi := make([]float64, 1)
	if err := Dhseqr(1, h, nil, wr, wi); err != nil {
		t.Fatal(err)
	}
	if wr[0] != 42 || wi[0] != 0 {
		t.Fatalf("1x1: %v+%vi", wr[0], wi[0])
	}
}

func TestDhseqrZeroMatrix(t *testing.T) {
	n := 4
	h := matrix.New(n, n)
	wr := make([]float64, n)
	wi := make([]float64, n)
	if err := Dhseqr(n, h, nil, wr, wi); err != nil {
		t.Fatal(err)
	}
	for i := range wr {
		if wr[i] != 0 || wi[i] != 0 {
			t.Fatalf("zero matrix eig %d: %v+%vi", i, wr[i], wi[i])
		}
	}
}

func TestEigenvaluesEndToEnd(t *testing.T) {
	// Random similarity transform of a known diagonal: eigenvalues survive.
	n := 16
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i + 1)
	}
	d := matrix.New(n, n)
	for i, v := range want {
		d.Set(i, i, v)
	}
	// Build an orthogonal similarity from a Hessenberg reduction's Q.
	_, _, q := reduceBlocked(matrix.Random(n, n, 99), 4)
	a := matrix.New(n, n)
	tmp := matrix.New(n, n)
	mul(tmp, q, d)
	mulT(a, tmp, q)

	eigs, err := Eigenvalues(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range eigs {
		if math.Abs(e.Re-want[i]) > 1e-9 || math.Abs(e.Im) > 1e-9 {
			t.Fatalf("eig %d: %v+%vi, want %v", i, e.Re, e.Im, want[i])
		}
	}
}

func TestEigenvaluesTraceAndPairs(t *testing.T) {
	n := 30
	a := matrix.RandomNormal(n, n, 21)
	eigs, err := Eigenvalues(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	sumRe, sumIm := 0.0, 0.0
	for _, e := range eigs {
		sumRe += e.Re
		sumIm += e.Im
	}
	if math.Abs(sumRe-a.Trace()) > 1e-9*(1+math.Abs(a.Trace())) {
		t.Fatalf("Σλ = %v, trace = %v", sumRe, a.Trace())
	}
	if math.Abs(sumIm) > 1e-9 {
		t.Fatalf("imaginary parts do not cancel: %v", sumIm)
	}
	// Every complex eigenvalue must have a conjugate partner.
	for _, e := range eigs {
		if e.Im == 0 {
			continue
		}
		found := false
		for _, f := range eigs {
			if math.Abs(f.Re-e.Re) < 1e-9 && math.Abs(f.Im+e.Im) < 1e-9 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("eigenvalue %v+%vi lacks a conjugate", e.Re, e.Im)
		}
	}
}

func TestEigenvaluesNonSquare(t *testing.T) {
	if _, err := Eigenvalues(matrix.New(2, 3), 4); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestSortEigsDeterministic(t *testing.T) {
	e := []Eig{{2, 1}, {1, 0}, {2, -1}}
	SortEigs(e)
	if e[0].Re != 1 || e[1].Im != -1 || e[2].Im != 1 {
		t.Fatalf("sorted order wrong: %v", e)
	}
}

// mul computes dst = a·b; mulT computes dst = a·bᵀ (test helpers).
func mul(dst, a, b *matrix.Matrix) {
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

func mulT(dst, a, b *matrix.Matrix) {
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

// eigDigest is the SHA-256 of the eigenvalues' IEEE-754 bit patterns,
// Re then Im for each, 8 little-endian bytes apiece.
func eigDigest(e []Eig) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range e {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Re))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Im))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// matDigest is the SHA-256 of a matrix's bit patterns in column-major
// order (the format of core.MatrixDigest).
func matDigest(m *matrix.Matrix) string {
	h := sha256.New()
	var buf [8]byte
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Property: the eigenvalues-only mode and the Schur mode of Dhseqr run
// the same arithmetic on the active block, so their sorted eigenvalues
// agree to the bit.
func TestDhseqrSchurModeBitIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 8, 17, 30, 64, 200} {
		for _, kind := range []string{"uniform", "normal", "symmetric"} {
			seed := uint64(n + 1)
			var a *matrix.Matrix
			switch kind {
			case "uniform":
				a = matrix.Random(n, n, seed)
			case "normal":
				a = matrix.RandomNormal(n, n, seed)
			default:
				a = matrix.RandomSymmetric(n, seed)
			}
			tau := make([]float64, max(n-1, 1))
			Dgehrd(n, 8, a.Data, a.Stride, tau)
			h := HessFromPacked(n, a.Data, a.Stride)
			plain, err := HessEigenvalues(h.Clone())
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, kind, err)
			}
			wr := make([]float64, n)
			wi := make([]float64, n)
			if err := Dhseqr(n, h, matrix.Identity(n), wr, wi); err != nil {
				t.Fatalf("n=%d %s schur: %v", n, kind, err)
			}
			schur := make([]Eig, n)
			for i := range schur {
				schur[i] = Eig{Re: wr[i], Im: wi[i]}
			}
			SortEigs(schur)
			for i := range plain {
				if math.Float64bits(plain[i].Re) != math.Float64bits(schur[i].Re) ||
					math.Float64bits(plain[i].Im) != math.Float64bits(schur[i].Im) {
					t.Fatalf("n=%d %s eig %d: values-only %v, Schur %v", n, kind, i, plain[i], schur[i])
				}
			}
		}
	}
}

// TestPinnedEigenDigests pins the exact bits of the eigensolver's output.
// The eigenvalue digests were recorded before the eigenvalue-only and
// Schur-vector iterations were merged into one Dhseqr, so they prove the
// merge moved no rounding. VR and VI were recorded from Schur vectors
// that start at the blocked Dorghr's Q. They are amd64 values (see core's
// TestPinnedResultDigests).
func TestPinnedEigenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned digests are amd64 values")
	}
	check := func(name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s: digest %s, pinned %s", name, got, want)
		}
	}
	e, err := Eigenvalues(matrix.RandomNormal(128, 128, 1), 32)
	if err != nil {
		t.Fatal(err)
	}
	check("Eigenvalues(128)", eigDigest(e), "2e6fe805e1a4a5800c26e92b569f3551a4d41492a7fd2bbe8f419dbf145b91f6")

	a, _ := badlyScaled()
	bal, err := BalancedEigenvalues(a.Data, a.Rows, a.Stride, 4)
	if err != nil {
		t.Fatal(err)
	}
	check("BalancedEigenvalues", eigDigest(bal), "37edb8303e874aecd275988d13891729dab708587d8aad1da5894cc6dce7555a")

	full, err := Eigen(matrix.RandomNormal(30, 30, 17), 8)
	if err != nil {
		t.Fatal(err)
	}
	check("Eigen values", eigDigest(full.Values), "d3e17e9425d421eab6ccb697b0950561870f495011169f019b97c1d2252d4585")
	check("Eigen VR", matDigest(full.VR), "61bdd21db05bed4107751d3b53dd72a250f6532e9fe69eae028f307e994b2893")
	check("Eigen VI", matDigest(full.VI), "997eb75e93427669ab5aaa27e9bd503cf583195c184524ba2d3f3f01b67b8a95")
}
