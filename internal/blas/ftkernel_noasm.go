//go:build !amd64

package blas

// Portable stand-ins for the amd64 fused-ABFT kernels. useAVXKernel is
// always false here, so these only keep the dispatch sites compiling.

func gemvDMR4AVX(t *[4]float64, a []float64, lda int, y, s []float64) {
	for c, tc := range t {
		col := a[c*lda : c*lda+len(y)]
		axpyGo(tc, col, y)
		axpyGo(tc, col, s)
	}
}

func ftSums4AVX(c []float64, ldc int, row, rowAbs []float64, sums *[8]float64) {
	*sums = [8]float64{}
	ftSums4Go(c, ldc, row, rowAbs, sums, 0)
}

func ftPredictAVX(kc int, alpha float64, panels, s, out []float64) {
	ftPredictGo(kc, alpha, panels, s, out)
}

func sumAVX(x []float64) float64 { return sumGo(x) }

func macroStripPreAVX(kc int, alpha float64, pa, pb, c []float64, ldc int, row, rowAbs, col, colAbs []float64) {
	stripSums(c, ldc, gemmNR, row, rowAbs, col, colAbs)
	macroStrip(len(row), kc, gemmNR, alpha, pa, pb, c, ldc)
}
