package blas

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/matrix"
)

// TestColSumsKernelMatchesGo: ColSums gives the same bits under the AVX2
// kernel and the portable loop, for every length mod 16 and a padded
// stride, and each sum is within rounding of the left-to-right sum.
func TestColSumsKernelMatchesGo(t *testing.T) {
	defer func(orig bool) { useAVXKernel = orig }(useAVXKernel)
	for _, m := range []int{0, 1, 3, 4, 5, 15, 16, 17, 31, 33, 63, 64, 65, 511, 512, 513} {
		const n = 3
		lda := m + 5
		a := matrix.Random(lda, n, uint64(m+1)).Data
		var got [2][n]float64
		for i, avx := range []bool{false, useAVXKernel} {
			useAVXKernel = avx
			ColSums(m, n, a, lda, got[i][:])
		}
		for j := 0; j < n; j++ {
			name := fmt.Sprintf("m=%d column %d", m, j)
			if math.Float64bits(got[0][j]) != math.Float64bits(got[1][j]) {
				t.Fatalf("%s: AVX2 sum %v, portable %v", name, got[1][j], got[0][j])
			}
			want, abs := 0.0, 0.0
			for _, v := range a[j*lda : j*lda+m] {
				want += v
				abs += math.Abs(v)
			}
			if math.Abs(got[0][j]-want) > 2*float64(m)*ftMacheps*abs {
				t.Fatalf("%s: sum %v, left-to-right %v", name, got[0][j], want)
			}
		}
	}
}

// TestFTPredictKernelMatchesGo: the AVX2 prediction kernel agrees with the
// portable loop within the rounding of a kc-term sum (FMA and four
// accumulators against one multiply-add chain per lane), for k depths
// around its ×4 unroll.
func TestFTPredictKernelMatchesGo(t *testing.T) {
	if !useAVXKernel {
		t.Skip("no AVX2 kernel on this machine")
	}
	for _, kc := range []int{1, 2, 3, 4, 5, 7, 32, 33, gemmKC} {
		const panels = 3
		p := matrix.Random(4*kc, panels, uint64(kc)).Data
		s := matrix.Random(kc, 1, uint64(kc+1)).Data
		var got, want [4 * panels]float64
		for i := range got {
			got[i], want[i] = 0.25*float64(i), 0.25*float64(i)
		}
		ftPredictAVX(kc, -1.5, p, s, got[:])
		ftPredictGo(kc, -1.5, p, s, want[:])
		for i := range got {
			tol := 4 * float64(kc+2) * ftMacheps * (math.Abs(want[i]) + 1.5*float64(kc))
			if math.Abs(got[i]-want[i]) > tol {
				t.Fatalf("kc=%d out[%d] = %v, portable %v", kc, i, got[i], want[i])
			}
		}
	}
}
