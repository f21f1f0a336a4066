package lapack

import (
	"repro/internal/blas"

	"repro/internal/matrix"
)

// orghrNB is Dorghr's reflector block width.
const orghrNB = 32

// Dorghr explicitly forms the n×n orthogonal matrix Q of the Hessenberg
// reduction Qᵀ A Q = H from the Householder vectors stored below the first
// subdiagonal of a (as left by Dgehrd/Dgehd2) and the scalar factors tau.
// a is only read.
//
// Q = H(0)·H(1)···H(n-3); reflector i acts on rows/columns i+1..n-1, so
// Q = diag(1, Q′) where Q′ is the (n-1)×(n-1) product LAPACK's DORGQR
// forms. Like DORGHR, Dorghr shifts the reflectors one column right into
// Q′'s storage and forms Q′ in place over them: the reflector blocks of
// width orghrNB are walked from last to first, each applies itself to the
// columns after it as one block reflector (Dlarft + Dlarfb, Level 3), and
// the unblocked update (dorg2r) runs only inside the block's own columns.
func Dorghr(n int, a []float64, lda int, tau []float64) *matrix.Matrix {
	q := matrix.Identity(n)
	if n <= 2 {
		return q
	}
	// Q′ = q(1:n, 1:n) with k = n-2 reflectors; reflector j has its unit
	// element at Q′(j, j) and its tail a(j+2:n, j) below it. Q′'s last
	// column starts as the unit vector Identity put there.
	m, k := n-1, n-2
	qq := q.View(1, 1, m, m)
	for j := 0; j < k; j++ {
		copy(qq.Data[j*qq.Stride+j+1:j*qq.Stride+m], a[j*lda+j+2:j*lda+n])
	}
	t := make([]float64, orghrNB*orghrNB)
	work := make([]float64, m*orghrNB)
	for i := (k - 1) / orghrNB * orghrNB; i >= 0; i -= orghrNB {
		ib := min(orghrNB, k-i)
		v := qq.Data[i*qq.Stride+i:]
		// Columns i+ib.. hold the product of the later blocks, and their
		// rows above i+ib are zero: C := H·C on rows i..m-1.
		Dlarft(m-i, ib, v, qq.Stride, tau[i:], t, orghrNB)
		Dlarfb(blas.Left, blas.NoTrans, m-i, m-i-ib, ib, v, qq.Stride, t, orghrNB,
			qq.Data[(i+ib)*qq.Stride+i:], qq.Stride, work, m-i-ib)
		dorg2r(m-i, ib, v, qq.Stride, tau[i:i+ib], work)
	}
	return q
}

// dorg2r overwrites the m×k block a, whose columns hold k forward
// reflectors with their unit elements on the diagonal, with the first k
// columns of H(0)·H(1)···H(k-1) (LAPACK's DORG2R with n = k). The rows
// above the diagonal must be zero on entry. work must hold k elements.
func dorg2r(m, k int, a []float64, lda int, tau []float64, work []float64) {
	for i := k - 1; i >= 0; i-- {
		col := a[i*lda:]
		if i < k-1 {
			Dlarf(blas.Left, m-i, k-i-1, col[i:], 1, tau[i], a[(i+1)*lda+i:], lda, work)
		}
		blas.Dscal(m-i-1, -tau[i], col[i+1:], 1)
		col[i] = 1 - tau[i]
	}
}

// HessFromPacked extracts the upper Hessenberg matrix H from the packed
// output of Dgehrd (zeroing the Householder-vector storage below the first
// subdiagonal).
func HessFromPacked(n int, a []float64, lda int) *matrix.Matrix {
	h := matrix.New(n, n)
	for j := 0; j < n; j++ {
		top := min(j+2, n)
		for i := 0; i < top; i++ {
			h.Set(i, j, a[j*lda+i])
		}
	}
	return h
}
