package blas

// Hardware dispatch for the Dgemm micro-kernel on amd64. The packed layouts
// written by packA/packB line up with 256-bit vectors when MR = NR = 4: one
// k step of a packed A micro-panel is exactly one YMM load, and the four
// packed B values broadcast against it, so the AVX2+FMA kernel in
// microkernel_amd64.s computes the whole 4×4 tile with four FMA chains per
// k step (eight with the ×2 unroll) instead of sixteen scalar multiply-adds.
//
// The same switch selects the column axpy kernels of axpy_amd64.s, which
// vectorise the Level-1/2 updates without FMA (axpy.go).
//
// useAVXKernel is a variable, not a constant, so tests can force the
// portable Go path and cross-check the two implementations.
var useAVXKernel = cpuSupportsAVX2FMA()

// cpuSupportsAVX2FMA reports whether both the CPU and the OS support the
// AVX2+FMA kernel: AVX, FMA, and OSXSAVE from CPUID leaf 1, YMM state
// enabled in XCR0, and AVX2 from leaf 7.
func cpuSupportsAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	_, _, c1, _ := cpuid(1, 0)
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be set or the OS does not
	// preserve YMM registers across context switches.
	xlo, _ := xgetbv()
	if xlo&0x6 != 0x6 {
		return false
	}
	const avx2 = 1 << 5
	_, b7, _, _ := cpuid(7, 0)
	return b7&avx2 != 0
}

// microKernelAVX computes the full MR×NR tile update C += alpha·op(A)·op(B)
// over kc packed steps, exactly like microKernelGo but vectorized.
// Implemented in microkernel_amd64.s.
//
//go:noescape
func microKernelAVX(kc int, alpha float64, pa, pb, c []float64, ldc int)

// axpyAVX computes y[i] += t*x[i] for i < len(x), bitwise like axpyGo;
// axpySubAVX computes y[i] -= t*x[i] like axpySubGo. Both require
// len(y) >= len(x). Implemented in axpy_amd64.s.
//
//go:noescape
func axpyAVX(t float64, x, y []float64)

//go:noescape
func axpySubAVX(t float64, x, y []float64)

// gemvDMR4AVX applies four columns of a NoTrans Dgemv, scaled by t, to y
// and to the shadow s in one pass over A, each output bitwise as four
// axpyUnitary calls leave it; ftSums4AVX is the checksum pass of four
// C-tile columns over len(row) rows, a multiple of 4; macroStripPreAVX
// the micro-kernels of a strip's whole 4×4 tiles, adding the sums of the
// C values each tile loads into the checksum expectations; ftPredictAVX
// the checksum predictions against packed micro-panels; sumAVX the column
// sum of ColSums, bitwise as sumGo. Implemented in ftkernel_amd64.s (see
// dmr.go, ftgemm.go, colsums.go).
//
//go:noescape
func gemvDMR4AVX(t *[4]float64, a []float64, lda int, y, s []float64)

//go:noescape
func ftSums4AVX(c []float64, ldc int, row, rowAbs []float64, sums *[8]float64)

//go:noescape
func ftPredictAVX(kc int, alpha float64, panels, s, out []float64)

//go:noescape
func macroStripPreAVX(kc int, alpha float64, pa, pb, c []float64, ldc int, row, rowAbs, col, colAbs []float64)

//go:noescape
func sumAVX(x []float64) float64

//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)
