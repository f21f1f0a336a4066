package blas

// Symmetric BLAS kernels needed by the tridiagonal (two-sided) reduction
// DSYTRD — the paper's stated future-work direction ("the rest of the
// hybrid two-sided factorizations"). Only the referenced triangle of the
// symmetric matrix is read or written, as in the reference BLAS.

// Dsymv computes y := alpha·A·x + beta·y where A is an n×n symmetric
// matrix of which only the uplo triangle is referenced.
func Dsymv(uplo Uplo, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
	checkMatrix("Dsymv", n, n, lda, a)
	checkVector("Dsymv", n, x, incX)
	checkVector("Dsymv", n, y, incY)
	if n == 0 {
		return
	}
	if beta != 1 {
		if beta == 0 {
			for i, iy := 0, 0; i < n; i, iy = i+1, iy+incY {
				y[iy] = 0
			}
		} else {
			Dscal(n, beta, y, incY)
		}
	}
	if alpha == 0 {
		return
	}
	if uplo == Upper {
		for j, jx, jy := 0, 0, 0; j < n; j, jx, jy = j+1, jx+incX, jy+incY {
			t1 := alpha * x[jx]
			t2 := 0.0
			col := a[j*lda:]
			for i, ix, iy := 0, 0, 0; i < j; i, ix, iy = i+1, ix+incX, iy+incY {
				y[iy] += t1 * col[i]
				t2 += col[i] * x[ix]
			}
			y[jy] += t1*col[j] + alpha*t2
		}
		return
	}
	for j, jx, jy := 0, 0, 0; j < n; j, jx, jy = j+1, jx+incX, jy+incY {
		t1 := alpha * x[jx]
		t2 := 0.0
		col := a[j*lda:]
		y[jy] += t1 * col[j]
		for i, ix, iy := j+1, (j+1)*incX, (j+1)*incY; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
			y[iy] += t1 * col[i]
			t2 += col[i] * x[ix]
		}
		y[jy] += alpha * t2
	}
}

// Dsyr2 performs the symmetric rank-2 update A := alpha·x·yᵀ + alpha·y·xᵀ + A
// on the uplo triangle of the n×n symmetric matrix A.
func Dsyr2(uplo Uplo, n int, alpha float64, x []float64, incX int, y []float64, incY int, a []float64, lda int) {
	checkMatrix("Dsyr2", n, n, lda, a)
	checkVector("Dsyr2", n, x, incX)
	checkVector("Dsyr2", n, y, incY)
	if n == 0 || alpha == 0 {
		return
	}
	for j, jx, jy := 0, 0, 0; j < n; j, jx, jy = j+1, jx+incX, jy+incY {
		if x[jx] == 0 && y[jy] == 0 {
			continue
		}
		t1 := alpha * y[jy]
		t2 := alpha * x[jx]
		col := a[j*lda:]
		if uplo == Upper {
			for i, ix, iy := 0, 0, 0; i <= j; i, ix, iy = i+1, ix+incX, iy+incY {
				col[i] += x[ix]*t1 + y[iy]*t2
			}
		} else {
			for i, ix, iy := j, j*incX, j*incY; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
				col[i] += x[ix]*t1 + y[iy]*t2
			}
		}
	}
}

// parallelSyr2kThreshold is the flop count (2n²k) above which Dsyr2k
// shards column blocks across the worker pool; a variable so tests can
// force the parallel path.
var parallelSyr2kThreshold = 1 << 21

// Dsyr2k performs the symmetric rank-2k update
//
//	C := alpha·A·Bᵀ + alpha·B·Aᵀ + beta·C  (trans == NoTrans)
//
// on the uplo triangle of the n×n matrix C, with A and B n×k.
// (The Trans variant is not needed by this codebase and is rejected.)
//
// Columns of C update independently, so large problems shard column blocks
// across the worker pool; the triangular per-column cost is balanced by
// the pool's dynamic index distribution. Results are bitwise identical to
// serial execution.
func Dsyr2k(uplo Uplo, trans Transpose, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if trans != NoTrans {
		badDim("Dsyr2k", "only NoTrans supported")
	}
	checkMatrix("Dsyr2k", n, k, lda, a)
	checkMatrix("Dsyr2k", n, k, ldb, b)
	checkMatrix("Dsyr2k", n, n, ldc, c)
	if n == 0 {
		return
	}
	if done := opTimer("syr2k", 2*float64(n)*float64(n)*float64(k)); done != nil {
		defer done()
	}
	p := procs()
	if p > 1 && 2*n*n*k >= parallelSyr2kThreshold && n > 1 {
		// More chunks than workers: dynamic distribution evens out the
		// triangular column costs.
		chunks := min(4*p, n)
		ParallelFor(chunks, func(w int) {
			syr2kCols(uplo, n, k, alpha, a, lda, b, ldb, beta, c, ldc, w*n/chunks, (w+1)*n/chunks)
		})
		return
	}
	syr2kCols(uplo, n, k, alpha, a, lda, b, ldb, beta, c, ldc, 0, n)
}

// syr2kCols applies the rank-2k update to columns [j0, j1) of C.
func syr2kCols(uplo Uplo, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc, j0, j1 int) {
	for j := j0; j < j1; j++ {
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, n
		}
		cc := c[j*ldc:]
		if beta != 1 {
			for i := lo; i < hi; i++ {
				cc[i] *= beta
			}
		}
		if alpha == 0 || k == 0 {
			continue
		}
		for l := 0; l < k; l++ {
			t1 := alpha * b[l*ldb+j]
			t2 := alpha * a[l*lda+j]
			if t1 == 0 && t2 == 0 {
				continue
			}
			ac := a[l*lda:]
			bc := b[l*ldb:]
			for i := lo; i < hi; i++ {
				cc[i] += ac[i]*t1 + bc[i]*t2
			}
		}
	}
}
