package lapack

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// dorghrLevel2 is the reference Dorghr: one Level-2 Dlarf per reflector,
// applied from the last to the first to the trailing block of Q.
func dorghrLevel2(n int, a []float64, lda int, tau []float64) *matrix.Matrix {
	q := matrix.Identity(n)
	if n <= 2 {
		return q
	}
	work := make([]float64, n)
	v := make([]float64, n)
	for i := n - 3; i >= 0; i-- {
		m := n - 1 - i
		v[0] = 1
		copy(v[1:m], a[i*lda+i+2:i*lda+i+2+(m-1)])
		sub := q.View(i+1, i+1, m, m)
		Dlarf(blas.Left, m, m, v[:m], 1, tau[i], sub.Data, sub.Stride, work)
	}
	return q
}

// dorghrSizes straddle the block width: empty, the trivial orders, one
// partial block, exact multiples and one past them.
var dorghrSizes = []int{0, 1, 2, 3, 4, 31, 32, 33, 34, 65, 100, 257}

// TestDorghrMatchesLevel2 compares the blocked Dorghr with the Level-2
// reference on Dgehrd output, and checks that Dorghr left its input's
// bits alone.
func TestDorghrMatchesLevel2(t *testing.T) {
	for _, n := range dorghrSizes {
		packed := matrix.RandomNormal(n, n, uint64(n)+5)
		tau := make([]float64, max(n-1, 1))
		Dgehrd(n, 16, packed.Data, packed.Stride, tau)
		before := packed.Clone()
		got := Dorghr(n, packed.Data, packed.Stride, tau)
		if !packed.Equal(before) {
			t.Fatalf("n=%d: Dorghr wrote to its input", n)
		}
		want := dorghrLevel2(n, packed.Data, packed.Stride, tau)
		if d := got.Sub(want).MaxAbs(); d > 1e-14 {
			t.Errorf("n=%d: max|ΔQ| = %.3g vs the Level-2 reference", n, d)
		}
	}
}

// BenchmarkDorghr forms Q from a blocked Hessenberg reduction.
func BenchmarkDorghr(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			packed := matrix.Random(n, n, 1)
			tau := make([]float64, n-1)
			Dgehrd(n, 32, packed.Data, packed.Stride, tau)
			b.SetBytes(int64(8 * n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkQ = Dorghr(n, packed.Data, packed.Stride, tau)
			}
			b.ReportMetric(4.0/3*math.Pow(float64(n), 3)/(b.Elapsed().Seconds()/float64(b.N))/1e9, "GFLOP/s")
		})
	}
}

var sinkQ *matrix.Matrix
