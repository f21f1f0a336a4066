package blas

import "math"

// Level-1 BLAS: vector-vector operations. All routines accept an increment
// so that rows of a column-major matrix (inc = leading dimension) can be
// treated as vectors, which the LAPACK panel kernels rely on. Negative
// increments are not needed by this codebase and are rejected.

func checkVector(routine string, n int, x []float64, incX int) {
	if n < 0 {
		badDim(routine, "n", n)
	}
	if incX <= 0 {
		badDim(routine, "inc", incX)
	}
	if n > 0 && len(x) < (n-1)*incX+1 {
		badDim(routine, "short vector", len(x), "need", (n-1)*incX+1)
	}
}

// Ddot returns the dot product xᵀy.
func Ddot(n int, x []float64, incX int, y []float64, incY int) float64 {
	checkVector("Ddot", n, x, incX)
	checkVector("Ddot", n, y, incY)
	sum := 0.0
	if incX == 1 && incY == 1 {
		for i := 0; i < n; i++ {
			sum += x[i] * y[i]
		}
		return sum
	}
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
		sum += x[ix] * y[iy]
	}
	return sum
}

// Daxpy computes y := alpha*x + y.
func Daxpy(n int, alpha float64, x []float64, incX int, y []float64, incY int) {
	checkVector("Daxpy", n, x, incX)
	checkVector("Daxpy", n, y, incY)
	if alpha == 0 {
		return
	}
	if incX == 1 && incY == 1 {
		axpyUnitary(alpha, x[:n], y[:n])
		return
	}
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
		y[iy] += alpha * x[ix]
	}
}

// Dscal computes x := alpha*x.
func Dscal(n int, alpha float64, x []float64, incX int) {
	checkVector("Dscal", n, x, incX)
	if incX == 1 {
		for i := 0; i < n; i++ {
			x[i] *= alpha
		}
		return
	}
	for i, ix := 0, 0; i < n; i, ix = i+1, ix+incX {
		x[ix] *= alpha
	}
}

// Dcopy copies x into y.
func Dcopy(n int, x []float64, incX int, y []float64, incY int) {
	checkVector("Dcopy", n, x, incX)
	checkVector("Dcopy", n, y, incY)
	if incX == 1 && incY == 1 {
		copy(y[:n], x[:n])
		return
	}
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
		y[iy] = x[ix]
	}
}

// Dswap exchanges x and y.
func Dswap(n int, x []float64, incX int, y []float64, incY int) {
	checkVector("Dswap", n, x, incX)
	checkVector("Dswap", n, y, incY)
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
		x[ix], y[iy] = y[iy], x[ix]
	}
}

// Dnrm2 returns the Euclidean norm of x, guarding against overflow and
// underflow with the reference BLAS scaled accumulation.
func Dnrm2(n int, x []float64, incX int) float64 {
	checkVector("Dnrm2", n, x, incX)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return math.Abs(x[0])
	}
	scale, ssq := 0.0, 1.0
	for i, ix := 0, 0; i < n; i, ix = i+1, ix+incX {
		v := x[ix]
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			ssq = 1 + ssq*(scale/a)*(scale/a)
			scale = a
		} else {
			ssq += (a / scale) * (a / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// Dasum returns the sum of absolute values of x.
func Dasum(n int, x []float64, incX int) float64 {
	checkVector("Dasum", n, x, incX)
	sum := 0.0
	for i, ix := 0, 0; i < n; i, ix = i+1, ix+incX {
		sum += math.Abs(x[ix])
	}
	return sum
}

// Dsum returns the plain (signed) sum of x; not a standard BLAS routine but
// the fundamental operation of the paper's checksum detection step
// (S_re = Σ A_re(i), S_ce = Σ A_ce(j)).
func Dsum(n int, x []float64, incX int) float64 {
	checkVector("Dsum", n, x, incX)
	sum := 0.0
	for i, ix := 0, 0; i < n; i, ix = i+1, ix+incX {
		sum += x[ix]
	}
	return sum
}

// Idamax returns the index of the element of x with the largest absolute
// value, or -1 if n == 0.
func Idamax(n int, x []float64, incX int) int {
	checkVector("Idamax", n, x, incX)
	if n == 0 {
		return -1
	}
	best, bestIdx := math.Abs(x[0]), 0
	for i, ix := 1, incX; i < n; i, ix = i+1, ix+incX {
		if a := math.Abs(x[ix]); a > best {
			best, bestIdx = a, i
		}
	}
	return bestIdx
}
