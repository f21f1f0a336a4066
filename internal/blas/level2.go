package blas

// Level-2 BLAS: matrix-vector operations over column-major storage.
// Dgemv and Dger dispatch onto the shared worker pool above
// parallelL2Threshold flops: Dgemv shards rows of y (NoTrans) or columns
// of A (Trans), Dger shards columns of A. Shards write disjoint output
// ranges with unchanged per-element operation order, so results are
// bitwise identical to serial execution.

// parallelL2Threshold is the flop count (2mn) above which the level-2
// routines shard across the pool; a variable so tests can force the
// parallel path.
var parallelL2Threshold = 1 << 20

// Dgemv computes y := alpha*op(A)*x + beta*y where A is m×n.
func Dgemv(trans Transpose, m, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
	lenY := checkGemv(trans, m, n, a, lda, x, incX, y, incY)
	if m == 0 || n == 0 {
		return
	}
	gemvScale(lenY, beta, y, incY)
	if alpha == 0 {
		return
	}
	if done := opTimer("gemv", 2*float64(m)*float64(n)); done != nil {
		defer done()
	}
	gemvUpdate(trans, m, n, alpha, a, lda, x, incX, y, incY)
}

// gemvScale applies Dgemv's first step, y := beta*y.
func gemvScale(lenY int, beta float64, y []float64, incY int) {
	if beta == 1 {
		return
	}
	if beta == 0 {
		for i, iy := 0, 0; i < lenY; i, iy = i+1, iy+incY {
			y[iy] = 0
		}
		return
	}
	Dscal(lenY, beta, y, incY)
}

// gemvUpdate accumulates y += alpha*op(A)*x, sharding above
// parallelL2Threshold. It is untimed, so the DMR twin (dmr.go) can run it
// twice and charge the call once.
func gemvUpdate(trans Transpose, m, n int, alpha float64, a []float64, lda int, x []float64, incX int, y []float64, incY int) {
	p := procs()
	parallel := p > 1 && 2*m*n >= parallelL2Threshold
	if trans == NoTrans {
		if parallel && m > 1 {
			chunks := min(p, m)
			ParallelFor(chunks, func(w int) {
				gemvNoTransRows(m, n, alpha, a, lda, x, incX, y, incY, w*m/chunks, (w+1)*m/chunks)
			})
			return
		}
		gemvNoTransRows(m, n, alpha, a, lda, x, incX, y, incY, 0, m)
		return
	}
	if parallel && n > 1 {
		chunks := min(p, n)
		ParallelFor(chunks, func(w int) {
			gemvTransCols(m, n, alpha, a, lda, x, incX, y, incY, w*n/chunks, (w+1)*n/chunks)
		})
		return
	}
	gemvTransCols(m, n, alpha, a, lda, x, incX, y, incY, 0, n)
}

// checkGemv validates Dgemv's arguments, panicking as Dgemv does, and
// returns the length of y.
func checkGemv(trans Transpose, m, n int, a []float64, lda int, x []float64, incX int, y []float64, incY int) int {
	checkMatrix("Dgemv", m, n, lda, a)
	lenX, lenY := n, m
	if trans == Trans {
		lenX, lenY = m, n
	}
	checkVector("Dgemv", lenX, x, incX)
	checkVector("Dgemv", lenY, y, incY)
	return lenY
}

// gemvNoTransRows accumulates rows [i0, i1) of y += alpha*A*x, one axpy
// segment per column of A.
func gemvNoTransRows(m, n int, alpha float64, a []float64, lda int, x []float64, incX int, y []float64, incY, i0, i1 int) {
	for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
		t := alpha * x[jx]
		if t == 0 {
			continue
		}
		col := a[j*lda : j*lda+m]
		if incY == 1 {
			axpyUnitary(t, col[i0:i1], y[i0:i1])
		} else {
			for i, iy := i0, i0*incY; i < i1; i, iy = i+1, iy+incY {
				y[iy] += t * col[i]
			}
		}
	}
}

// gemvTransCols accumulates elements [j0, j1) of y += alpha*Aᵀ*x, one dot
// per column of A. With unit-stride x it runs four columns' dot chains
// side by side, so four independent add chains are in flight instead of
// one latency-bound chain, and each x element is loaded once per four
// columns; every chain still sums its column in the original order, so
// the result is bitwise that of one column at a time.
func gemvTransCols(m, n int, alpha float64, a []float64, lda int, x []float64, incX int, y []float64, incY, j0, j1 int) {
	j, jy := j0, j0*incY
	if incX == 1 {
		xv := x[:m]
		for ; j+4 <= j1; j, jy = j+4, jy+4*incY {
			c0 := a[j*lda : j*lda+m]
			c1 := a[(j+1)*lda : (j+1)*lda+m]
			c2 := a[(j+2)*lda : (j+2)*lda+m]
			c3 := a[(j+3)*lda : (j+3)*lda+m]
			var s0, s1, s2, s3 float64
			for i, xi := range xv {
				s0 += c0[i] * xi
				s1 += c1[i] * xi
				s2 += c2[i] * xi
				s3 += c3[i] * xi
			}
			y[jy] += alpha * s0
			y[jy+incY] += alpha * s1
			y[jy+2*incY] += alpha * s2
			y[jy+3*incY] += alpha * s3
		}
	}
	for ; j < j1; j, jy = j+1, jy+incY {
		col := a[j*lda : j*lda+m]
		sum := 0.0
		if incX == 1 {
			for i := 0; i < m; i++ {
				sum += col[i] * x[i]
			}
		} else {
			for i, ix := 0, 0; i < m; i, ix = i+1, ix+incX {
				sum += col[i] * x[ix]
			}
		}
		y[jy] += alpha * sum
	}
}

// Dger computes the rank-1 update A := alpha*x*yᵀ + A where A is m×n.
func Dger(m, n int, alpha float64, x []float64, incX int, y []float64, incY int, a []float64, lda int) {
	checkGer(m, n, x, incX, y, incY, a, lda)
	if m == 0 || n == 0 || alpha == 0 {
		return
	}
	if done := opTimer("ger", 2*float64(m)*float64(n)); done != nil {
		defer done()
	}
	gerUpdate(m, n, alpha, x, incX, y, incY, a, lda)
}

// gerUpdate applies the rank-1 update, sharding columns above
// parallelL2Threshold. Untimed, like gemvUpdate.
func gerUpdate(m, n int, alpha float64, x []float64, incX int, y []float64, incY int, a []float64, lda int) {
	p := procs()
	if p > 1 && 2*m*n >= parallelL2Threshold && n > 1 {
		chunks := min(p, n)
		ParallelFor(chunks, func(w int) {
			gerCols(m, n, alpha, x, incX, y, incY, a, lda, w*n/chunks, (w+1)*n/chunks)
		})
		return
	}
	gerCols(m, n, alpha, x, incX, y, incY, a, lda, 0, n)
}

// checkGer validates Dger's arguments, panicking as Dger does.
func checkGer(m, n int, x []float64, incX int, y []float64, incY int, a []float64, lda int) {
	checkMatrix("Dger", m, n, lda, a)
	checkVector("Dger", m, x, incX)
	checkVector("Dger", n, y, incY)
}

// gerCols applies the rank-1 update to columns [j0, j1) of A.
func gerCols(m, n int, alpha float64, x []float64, incX int, y []float64, incY int, a []float64, lda, j0, j1 int) {
	for j, jy := j0, j0*incY; j < j1; j, jy = j+1, jy+incY {
		t := alpha * y[jy]
		if t == 0 {
			continue
		}
		col := a[j*lda : j*lda+m]
		if incX == 1 {
			axpyUnitary(t, x[:m], col)
			continue
		}
		for i, ix := 0, 0; i < m; i, ix = i+1, ix+incX {
			col[i] += t * x[ix]
		}
	}
}

// Dtrmv computes x := op(A)*x where A is an n×n triangular matrix.
func Dtrmv(uplo Uplo, trans Transpose, diag Diag, n int, a []float64, lda int, x []float64, incX int) {
	checkMatrix("Dtrmv", n, n, lda, a)
	checkVector("Dtrmv", n, x, incX)
	if n == 0 {
		return
	}
	nonUnit := diag == NonUnit
	switch {
	case trans == NoTrans && uplo == Upper:
		// x := U*x, forward over columns.
		for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
			t := x[jx]
			if t != 0 {
				col := a[j*lda:]
				if incX == 1 {
					axpyUnitary(t, col[:j], x)
				} else {
					for i, ix := 0, 0; i < j; i, ix = i+1, ix+incX {
						x[ix] += t * col[i]
					}
				}
				if nonUnit {
					x[jx] = t * col[j]
				}
			} else if nonUnit {
				x[jx] = 0
			}
		}
	case trans == NoTrans && uplo == Lower:
		// x := L*x, backward over columns.
		for j, jx := n-1, (n-1)*incX; j >= 0; j, jx = j-1, jx-incX {
			t := x[jx]
			col := a[j*lda:]
			if t != 0 {
				if incX == 1 {
					axpyUnitary(t, col[j+1:n], x[j+1:])
				} else {
					for i, ix := n-1, (n-1)*incX; i > j; i, ix = i-1, ix-incX {
						x[ix] += t * col[i]
					}
				}
				if nonUnit {
					x[jx] = t * col[j]
				}
			} else if nonUnit {
				x[jx] = 0
			}
		}
	case trans == Trans && uplo == Upper:
		// x := Uᵀ*x, backward.
		for j, jx := n-1, (n-1)*incX; j >= 0; j, jx = j-1, jx-incX {
			col := a[j*lda:]
			t := 0.0
			if nonUnit {
				t = x[jx] * col[j]
			} else {
				t = x[jx]
			}
			for i, ix := 0, 0; i < j; i, ix = i+1, ix+incX {
				t += col[i] * x[ix]
			}
			x[jx] = t
		}
	default: // trans == Trans && uplo == Lower
		// x := Lᵀ*x, forward.
		for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
			col := a[j*lda:]
			t := 0.0
			if nonUnit {
				t = x[jx] * col[j]
			} else {
				t = x[jx]
			}
			for i, ix := j+1, (j+1)*incX; i < n; i, ix = i+1, ix+incX {
				t += col[i] * x[ix]
			}
			x[jx] = t
		}
	}
}

// Dtrsv solves op(A)*x = b for x in place, where A is n×n triangular and x
// holds b on entry.
func Dtrsv(uplo Uplo, trans Transpose, diag Diag, n int, a []float64, lda int, x []float64, incX int) {
	checkMatrix("Dtrsv", n, n, lda, a)
	checkVector("Dtrsv", n, x, incX)
	if n == 0 {
		return
	}
	nonUnit := diag == NonUnit
	switch {
	case trans == NoTrans && uplo == Upper:
		for j, jx := n-1, (n-1)*incX; j >= 0; j, jx = j-1, jx-incX {
			col := a[j*lda:]
			if nonUnit {
				x[jx] /= col[j]
			}
			t := x[jx]
			if incX == 1 {
				axpySubUnitary(t, col[:j], x)
				continue
			}
			for i, ix := 0, 0; i < j; i, ix = i+1, ix+incX {
				x[ix] -= t * col[i]
			}
		}
	case trans == NoTrans && uplo == Lower:
		for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
			col := a[j*lda:]
			if nonUnit {
				x[jx] /= col[j]
			}
			t := x[jx]
			if incX == 1 {
				axpySubUnitary(t, col[j+1:n], x[j+1:])
				continue
			}
			for i, ix := j+1, (j+1)*incX; i < n; i, ix = i+1, ix+incX {
				x[ix] -= t * col[i]
			}
		}
	case trans == Trans && uplo == Upper:
		for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
			col := a[j*lda:]
			t := x[jx]
			for i, ix := 0, 0; i < j; i, ix = i+1, ix+incX {
				t -= col[i] * x[ix]
			}
			if nonUnit {
				t /= col[j]
			}
			x[jx] = t
		}
	default: // trans == Trans && uplo == Lower
		for j, jx := n-1, (n-1)*incX; j >= 0; j, jx = j-1, jx-incX {
			col := a[j*lda:]
			t := x[jx]
			for i, ix := j+1, (j+1)*incX; i < n; i, ix = i+1, ix+incX {
				t -= col[i] * x[ix]
			}
			if nonUnit {
				t /= col[j]
			}
			x[jx] = t
		}
	}
}
