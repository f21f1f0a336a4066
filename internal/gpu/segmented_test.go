package gpu

import (
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// A view aliases its parent's storage at the block's origin and keeps
// the parent's stride; it is not an allocation.
func TestMatrixViewAliasesParent(t *testing.T) {
	d := newReal()
	m := d.Alloc(5, 7)
	bytes := d.AllocatedBytes()
	v := m.View(1, 2, 3, 4)
	if d.AllocatedBytes() != bytes {
		t.Fatal("View changed the allocation accounting")
	}
	if v.Rows != 3 || v.Cols != 4 || v.Stride != m.Stride {
		t.Fatalf("view shape %dx%d stride %d", v.Rows, v.Cols, v.Stride)
	}
	d.Poke(v, 2, 3, 1.5)
	if m.At(3, 5) != 1.5 {
		t.Fatalf("write through the view landed elsewhere: parent(3,5) = %v", m.At(3, 5))
	}
	if c := New(sim.K40c(), CostOnly).Alloc(5, 7).View(1, 2, 3, 4); c.Data != nil {
		t.Fatal("cost-only view holds data")
	}
}

// segOperands uploads an m×w left operand, a w×n right operand and a
// zeroed output of the given shape.
func segOperands(d *Device, m, w, n, outRows, outCols int) (a, b, c *Matrix, ah, bh *matrix.Matrix) {
	ah = matrix.Random(m, w, 21)
	bh = matrix.Random(w, n, 22)
	a, b, c = d.Alloc(m, w), d.Alloc(w, n), d.Alloc(outRows, outCols)
	d.H2D(a, 0, 0, ah)
	d.H2D(b, 0, 0, bh)
	return
}

// Every segment of a segmented kernel computes exactly what a separate
// kernel over it does, bit for bit, while the launch is charged once.
func TestSegmentedKernelsMatchPerSegmentKernels(t *testing.T) {
	const m, w, n = 9, 11, 3
	segs := []Seg{{A: 0, B: 1, N: 4, C: 0}, {A: 5, B: 6, N: 5, C: 1}}

	for _, fused := range []bool{false, true} {
		seg, one := newReal(), newReal()
		seg.SetSubstrateFused(fused)
		one.SetSubstrateFused(fused)

		// GemvSeg: column s.C of y is A(:, s.A:s.A+s.N)·x(s.B:s.B+s.N).
		a1, x1, y1, _, _ := segOperands(seg, m, w, 1, m, len(segs))
		a2, x2, y2, _, _ := segOperands(one, m, w, 1, m, len(segs))
		seg.GemvSeg(seg.Compute, 0, m, 1.5, a1, 0, x1, 0, 0, y1, 0, segs)
		for _, s := range segs {
			one.Gemv(blas.NoTrans, m, s.N, 1.5, a2, 0, s.A, x2, s.B, 0, 0, y2, 0, s.C)
		}
		// GemmSeg: columns s.C·n.. of C are A(:, segment)·B(segment, :).
		a3, b3, c3, _, _ := segOperands(seg, m, w, n, m, n*len(segs))
		a4, b4, c4, _, _ := segOperands(one, m, w, n, m, n*len(segs))
		nsegs := []Seg{{A: 0, B: 1, N: 4, C: 0}, {A: 5, B: 6, N: 5, C: n}}
		seg.GemmSeg(m, n, 1, a3, 0, b3, 0, 0, c3, 0, nsegs)
		for _, s := range nsegs {
			one.Gemm(blas.NoTrans, blas.NoTrans, m, n, s.N, 1, a4, 0, s.A, b4, s.B, 0, 0, c4, 0, s.C)
		}
		for i, pair := range [][2]*Matrix{{y1, y2}, {c3, c4}} {
			for j := range pair[0].Data {
				if pair[0].Data[j] != pair[1].Data[j] {
					t.Fatalf("fused=%v kernel %d: segmented result differs from per-segment kernels at %d", fused, i, j)
				}
			}
		}
		if seg.KernelCount() != 2 || one.KernelCount() != int64(2*len(segs)) {
			t.Fatalf("fused=%v: %d segmented launches, %d separate", fused, seg.KernelCount(), one.KernelCount())
		}
		if fused {
			if checks, det, _ := seg.FTStats(); checks == 0 || det != 0 {
				t.Fatalf("fused segmented kernels: checks=%d detections=%d", checks, det)
			}
		}
	}
}

// A checksum row riding a GEMM launch (GemmSegRow, GemmChkRow) is
// computed as the strided GEMV it is, beside a data product bit-equal to
// the plain kernel's, and the launch is charged as the kernels it folds
// less their launches.
func TestChecksumRowIsStridedGemv(t *testing.T) {
	const w, n = 10, 4
	launch := sim.K40c().KernelLaunchSec
	gemv := func(m, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
		blas.Dgemv(blas.Trans, m, n, alpha, a, lda, x, incX, beta, y, incY)
	}

	// GemmSegRow: rows 0..1 of a 3×w A are the data, row 2 its checksum
	// row, which lands in row 2 of the output.
	d, one := newReal(), newReal()
	ah := matrix.Random(3, w, 31)
	bh := matrix.Random(w, n, 32)
	segs := []Seg{{A: 1, B: 1, N: 3, C: 0}, {A: 4, B: 4, N: 6, C: n}}
	a, b, c := d.Alloc(3, w), d.Alloc(w, n), d.Alloc(3, 2*n)
	d.H2D(a, 0, 0, ah)
	d.H2D(b, 0, 0, bh)
	a1, b1, c1 := one.Alloc(3, w), one.Alloc(w, n), one.Alloc(3, 2*n)
	one.H2D(a1, 0, 0, ah)
	one.H2D(b1, 0, 0, bh)
	d.GemmSegRow(2, n, 2, a, 0, 2, b, 0, 0, c, 0, segs)
	one.GemmSeg(2, n, 2, a1, 0, b1, 0, 0, c1, 0, segs)
	for _, s := range segs {
		want := make([]float64, n)
		gemv(s.N, n, 2, bh.Data[s.B:], bh.Stride, ah.Data[s.A*ah.Stride+2:], ah.Stride, 0, want, 1)
		for j, v := range want {
			if got := c.At(2, s.C+j); got != v {
				t.Fatalf("GemmSegRow segment %+v column %d: %v, want %v", s, j, got, v)
			}
			for i := 0; i < 2; i++ {
				if c.At(i, s.C+j) != c1.At(i, s.C+j) {
					t.Fatalf("GemmSegRow data (%d,%d) differs from GemmSeg's", i, s.C+j)
				}
			}
		}
	}
	if got, want := d.TimeBreakdown()["gemm"], d.Params.GemmDevice(2, n, 9)+d.Params.GemvDevice(9, n)-launch; got != want {
		t.Fatalf("GemmSegRow charged %v, want %v", got, want)
	}

	// GemmChkRow: C(1:6, 1:1+n) −= A·B with A 5×3, its checksum row in
	// row 0; the column sums of A land in sums when fresh.
	const m, k = 5, 3
	ah = matrix.Random(m, k, 33)
	bh = matrix.Random(k, n, 34)
	for _, fresh := range []bool{true, false} {
		d := newReal()
		a, b, c, sums := d.Alloc(m, k), d.Alloc(k, n), d.Alloc(m+1, n+1), d.Alloc(1, k)
		d.H2D(a, 0, 0, ah)
		d.H2D(b, 0, 0, bh)
		x := []float64{0.5, -1, 2} // what an earlier launch left
		if fresh {
			x = ah.ColSums()
		} else {
			d.H2D(sums, 0, 0, matrix.FromColMajor(1, k, 1, x))
		}
		d.GemmChkRow(m, n, k, -1, a, 0, 0, b, 0, 0, 1, c, 1, 1, 0, sums, fresh)
		want := make([]float64, n)
		gemv(k, n, -1, bh.Data, bh.Stride, x, 1, 1, want, 1)
		data := make([]float64, m*n)
		blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, -1, ah.Data, ah.Stride, bh.Data, bh.Stride, 1, data, m)
		for j := 0; j < n; j++ {
			if got := c.At(0, 1+j); got != want[j] {
				t.Fatalf("fresh=%v: checksum row column %d: %v, want %v", fresh, j, got, want[j])
			}
			for i := 0; i < m; i++ {
				if got := c.At(1+i, 1+j); got != data[j*m+i] {
					t.Fatalf("fresh=%v: data (%d,%d): %v, want %v", fresh, i, j, got, data[j*m+i])
				}
			}
		}
		cost := d.Params.GemmDevice(m, n, k) + d.Params.GemvDevice(k, n) - launch
		if fresh {
			cost += d.Params.GemvDevice(m, k) - launch
		}
		if got := d.TimeBreakdown()["gemm"]; got != cost {
			t.Fatalf("fresh=%v: GemmChkRow charged %v, want %v", fresh, got, cost)
		}
		if d.KernelCount() != 1 {
			t.Fatalf("fresh=%v: %d launches, want 1", fresh, d.KernelCount())
		}
	}
}
