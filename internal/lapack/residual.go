package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// checksNB is the column-block width of the verification products: wide
// enough for Dgemm to run at Level-3 speed, narrow enough that a block of
// the residual is a small workspace next to the n×n operands.
const checksNB = 128

// FactorizationResidual returns the paper's backward-error metric
//
//	r = ‖A − Q·H·Qᵀ‖₁ / (N·‖A‖₁)
//
// used in Table II to compare the fault-tolerant and fault-prone
// reductions. h may be any n×n matrix: each column block of Q·H only
// multiplies the rows of h that hold a nonzero in that block, so the
// zero rows of a Hessenberg, tridiagonal or Schur factor cost nothing,
// and A − (Q·H)·Qᵀ is formed and summed one column block at a time.
func FactorizationResidual(a, q, h *matrix.Matrix) float64 {
	n := a.Rows
	if n == 0 {
		return 0
	}
	qh := matrix.New(n, n)
	for j0 := 0; j0 < n; j0 += checksNB {
		jb := min(checksNB, n-j0)
		lo, hi := rowExtent(h, j0, jb)
		if lo < hi {
			blas.Dgemm(blas.NoTrans, blas.NoTrans, n, jb, hi-lo, 1, q.Data[lo*q.Stride:], q.Stride,
				h.Data[j0*h.Stride+lo:], h.Stride, 0, qh.Data[j0*n:], n)
		}
	}
	r := make([]float64, n*min(checksNB, n))
	num := 0.0
	for j0 := 0; j0 < n; j0 += checksNB {
		jb := min(checksNB, n-j0)
		for c := 0; c < jb; c++ {
			copy(r[c*n:(c+1)*n], a.Col(j0+c))
		}
		// R := A(:, j0:j0+jb) − (Q·H)·Q(j0:j0+jb, :)ᵀ
		blas.Dgemm(blas.NoTrans, blas.Trans, n, jb, n, -1, qh.Data, n, q.Data[j0:], q.Stride, 1, r, n)
		for c := 0; c < jb; c++ {
			num = math.Max(num, asum(r[c*n:(c+1)*n]))
		}
	}
	den := float64(n) * a.Norm1()
	if den == 0 {
		return num
	}
	return num / den
}

// rowExtent returns the smallest row range [lo, hi) of h that holds every
// nonzero of columns j0..j0+jb-1 (lo = hi when they are all zero).
func rowExtent(h *matrix.Matrix, j0, jb int) (lo, hi int) {
	lo = h.Rows
	for j := j0; j < j0+jb; j++ {
		col := h.Col(j)
		i := 0
		for i < lo && col[i] == 0 {
			i++
		}
		lo = i
		i = len(col)
		for i > hi && col[i-1] == 0 {
			i--
		}
		hi = i
	}
	return min(lo, hi), hi
}

// OrthogonalityResidual returns the paper's Table III metric
//
//	r = ‖Q·Qᵀ − I‖₁ / N.
//
// QQᵀ is symmetric, so only its lower block triangle is formed, one block
// column at a time: an element below the diagonal block counts toward
// both its column's sum and its row's (the column sum of its mirror).
func OrthogonalityResidual(q *matrix.Matrix) float64 {
	n := q.Rows
	if n == 0 {
		return 0
	}
	sums := make([]float64, n)
	g := make([]float64, n*min(checksNB, n))
	for j0 := 0; j0 < n; j0 += checksNB {
		jb := min(checksNB, n-j0)
		m := n - j0
		// G := Q(j0:n, :)·Q(j0:j0+jb, :)ᵀ, the block column of QQᵀ from
		// its diagonal block down.
		blas.Dgemm(blas.NoTrans, blas.Trans, m, jb, q.Cols, 1, q.Data[j0:], q.Stride, q.Data[j0:], q.Stride, 0, g, m)
		for c := 0; c < jb; c++ {
			col := g[c*m : (c+1)*m]
			col[c] -= 1
			s := asum(col[:jb])
			for r, v := range col[jb:] {
				v = math.Abs(v)
				s += v
				sums[j0+jb+r] += v
			}
			sums[j0+c] += s
		}
	}
	norm := 0.0
	for _, s := range sums {
		norm = math.Max(norm, s)
	}
	return norm / float64(n)
}

// asum returns Σ|x_i|.
func asum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}
