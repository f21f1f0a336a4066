package blas

// The column axpy is the inner loop of every memory-bound Level-1/2 update
// in the package: Daxpy, the NoTrans Dgemv rows, the Dger columns, the
// column forms of Dtrmv/Dtrsv and the axpy cases of Dtrmm/Dtrsm. All of
// them funnel through this one kernel pair.
//
// On amd64 with AVX2 the kernels run 4-wide (axpy_amd64.s) with a separate
// multiply and add — VMULPD then VADDPD/VSUBPD, never FMA — so every element
// sees exactly the rounding sequence of the scalar loop below: one rounded
// product, one rounded sum, with the operands in the same order (which
// fixes the payload of a NaN when both operands are NaN). The two paths are
// therefore bitwise identical, which the determinism contract and the FT
// checksum proofs rely on (DESIGN.md §7).

// axpyUnitary computes y[i] += t*x[i] for i < len(x); y must be at least
// as long as x.
func axpyUnitary(t float64, x, y []float64) {
	y = y[:len(x)]
	if useAVXKernel {
		axpyAVX(t, x, y)
		return
	}
	axpyGo(t, x, y)
}

// axpySubUnitary computes y[i] -= t*x[i] for i < len(x), the triangular
// solves' form of the update.
func axpySubUnitary(t float64, x, y []float64) {
	y = y[:len(x)]
	if useAVXKernel {
		axpySubAVX(t, x, y)
		return
	}
	axpySubGo(t, x, y)
}

func axpyGo(t float64, x, y []float64) {
	y = y[:len(x)]
	for i := range x {
		y[i] += t * x[i]
	}
}

func axpySubGo(t float64, x, y []float64) {
	y = y[:len(x)]
	for i := range x {
		y[i] -= t * x[i]
	}
}
