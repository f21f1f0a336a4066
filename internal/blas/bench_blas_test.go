package blas

import (
	"testing"
	"time"

	"repro/internal/matrix"
)

// Substrate benchmarks for the blocked BLAS, one per GemmShapes class the
// Hessenberg reduction actually produces. Each reports achieved GFLOP/s;
// BenchmarkDgemmBlockedVsNaive holds the substrate's acceptance bar.

func benchGemm(b *testing.B, m, n, k int, f func(m, n, k int, a, bb, c *matrix.Matrix)) {
	a := matrix.Random(m, k, 1)
	bb := matrix.Random(k, n, 2)
	c := matrix.New(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(m, n, k, a, bb, c)
	}
	gflops := 2 * float64(m) * float64(n) * float64(k) * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gflops, "GFLOP/s")
}

func BenchmarkDgemmSquare512(b *testing.B) {
	s := GemmShapes[0]
	benchGemm(b, s.M, s.N, s.K, func(m, n, k int, a, bb, c *matrix.Matrix) {
		Dgemm(NoTrans, NoTrans, m, n, k, 1, a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
	})
}

func BenchmarkDgemmTallSkinnyPanel(b *testing.B) {
	s := GemmShapes[1]
	benchGemm(b, s.M, s.N, s.K, func(m, n, k int, a, bb, c *matrix.Matrix) {
		Dgemm(NoTrans, NoTrans, m, n, k, 1, a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
	})
}

func BenchmarkDgemmRankNBTrailing(b *testing.B) {
	s := GemmShapes[2]
	benchGemm(b, s.M, s.N, s.K, func(m, n, k int, a, bb, c *matrix.Matrix) {
		Dgemm(NoTrans, NoTrans, m, n, k, 1, a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
	})
}

// BenchmarkDgemmLeftUpdate is the left update's W = Vᵀ·C: m = nb rows,
// so the loop nest splits each NC block's strips into work items.
func BenchmarkDgemmLeftUpdate(b *testing.B) {
	s := GemmShapes[3]
	v := matrix.Random(s.K, s.M, 1)
	benchGemm(b, s.M, s.N, s.K, func(m, n, k int, _, c, w *matrix.Matrix) {
		Dgemm(Trans, NoTrans, m, n, k, 1, v.Data, v.Stride, c.Data, c.Stride, 0, w.Data, w.Stride)
	})
}

// BenchmarkDgemmFTSquare512 is the fused-ABFT variant of the square
// shape; the gap to BenchmarkDgemmSquare512 is the substrate's wall
// overhead (its ≤8% bar at 512³ is judged by the paired median of
// `go run ./cmd/experiments -exp blasft`).
func BenchmarkDgemmFTSquare512(b *testing.B) {
	s := GemmShapes[0]
	benchGemm(b, s.M, s.N, s.K, func(m, n, k int, a, bb, c *matrix.Matrix) {
		if _, err := DgemmFT(NoTrans, NoTrans, m, n, k, 1, a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkDgemmNaive512 is the pre-blocking kernel on the square shape —
// the baseline BenchmarkDgemmBlockedVsNaive measures against.
func BenchmarkDgemmNaive512(b *testing.B) {
	s := GemmShapes[0]
	benchGemm(b, s.M, s.N, s.K, func(m, n, k int, a, bb, c *matrix.Matrix) {
		naiveGemm(NoTrans, NoTrans, m, n, k, 1, a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
	})
}

func BenchmarkDgemv(b *testing.B) {
	const m, n = 2048, 2048
	a := matrix.Random(m, n, 3)
	x := matrix.Random(n, 1, 4)
	y := make([]float64, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dgemv(NoTrans, m, n, 1, a.Data, a.Stride, x.Data, 1, 0, y, 1)
	}
	b.ReportMetric(2*float64(m)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// Level-2 benchmarks at the shapes the reduction spends its wall time in.
// benchL2 reports GFLOP/s for an op of 2mn flops.
func benchL2(b *testing.B, m, n int, f func()) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
	b.ReportMetric(2*float64(m)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkDgemvNoTransSlab is the panel's Y = A·V product on one
// in-cache 512×256 slab: one column axpy per column of A.
func BenchmarkDgemvNoTransSlab(b *testing.B) {
	const m, n = 512, 256
	a := matrix.Random(m, n, 3)
	x := matrix.Random(n, 1, 4)
	y := make([]float64, m)
	benchL2(b, m, n, func() { Dgemv(NoTrans, m, n, 1, a.Data, a.Stride, x.Data, 1, 0, y, 1) })
}

// BenchmarkDgemvTrans is the tall transposed product Dlarf and the
// device's Gemv(Trans) run: 32 dot chains of length 1024.
func BenchmarkDgemvTrans(b *testing.B) {
	const m, n = 1024, 32
	a := matrix.Random(m, n, 3)
	x := matrix.Random(m, 1, 4)
	y := make([]float64, n)
	benchL2(b, m, n, func() { Dgemv(Trans, m, n, 1, a.Data, a.Stride, x.Data, 1, 0, y, 1) })
}

// BenchmarkDger is the rank-1 update Dorghr applies once per reflector.
func BenchmarkDger(b *testing.B) {
	const m, n = 1024, 1024
	a := matrix.Random(m, n, 3)
	x := matrix.Random(m, 1, 4)
	y := matrix.Random(n, 1, 5)
	benchL2(b, m, n, func() { Dger(m, n, 1e-9, x.Data, 1, y.Data, 1, a.Data, a.Stride) })
}

// BenchmarkDgemvFT is the DMR-verified twin of BenchmarkDgemvNoTransSlab:
// one pass over A into the output and its shadow, then one bit compare.
func BenchmarkDgemvFT(b *testing.B) {
	const m, n = 512, 256
	a := matrix.Random(m, n, 3)
	x := matrix.Random(n, 1, 4)
	y := make([]float64, m)
	benchL2(b, m, n, func() {
		if _, err := DgemvFT(NoTrans, m, n, 1, a.Data, a.Stride, x.Data, 1, 0, y, 1); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkDsyr2k(b *testing.B) {
	const n, k = 1024, 32
	a := matrix.Random(n, k, 5)
	bb := matrix.Random(n, k, 6)
	c := matrix.New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dsyr2k(Lower, NoTrans, n, k, 1, a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
	}
	b.ReportMetric(2*float64(n)*float64(n)*float64(k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkDgemmBlockedVsNaive is the substrate's acceptance bar: on the
// square shape the blocked Dgemm must beat the pre-blocking kernel by
// ≥2×. The two kernels alternate call by call, so drift on a shared host
// hits both alike; the benchmark fails when the ratio of their summed
// times misses the bar. It runs only under -bench, never in `go test`.
func BenchmarkDgemmBlockedVsNaive(b *testing.B) {
	s := GemmShapes[0]
	a := matrix.Random(s.M, s.K, 1)
	bb := matrix.Random(s.K, s.N, 2)
	c := matrix.New(s.M, s.N)
	var naive, blocked time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		naiveGemm(NoTrans, NoTrans, s.M, s.N, s.K, 1, a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
		t1 := time.Now()
		Dgemm(NoTrans, NoTrans, s.M, s.N, s.K, 1, a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
		naive += t1.Sub(t0)
		blocked += time.Since(t1)
	}
	speedup := naive.Seconds() / blocked.Seconds()
	b.ReportMetric(speedup, "x_vs_naive")
	if speedup < 2 {
		b.Fatalf("blocked Dgemm %.2fx faster than naive on %s, below the 2x bar", speedup, s.Name)
	}
}
