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

// GemmRow computes one-row products with x and y strided along rows, as
// the GEMV kernel, and is charged as one.
func TestGemmRowIsStridedGemv(t *testing.T) {
	const w, n = 10, 4
	d := newReal()
	// x is row 2 of a 3×w matrix, y row 1 of a 2×(2n) output.
	ah := matrix.Random(3, w, 31)
	bh := matrix.Random(w, n, 32)
	a, b, c := d.Alloc(3, w), d.Alloc(w, n), d.Alloc(2, 2*n)
	d.H2D(a, 0, 0, ah)
	d.H2D(b, 0, 0, bh)
	segs := []Seg{{A: 1, B: 1, N: 3, C: 0}, {A: 4, B: 4, N: 6, C: n}}
	d.GemmRow(n, 2, a, 2, b, 0, 0, c, 1, segs)
	for _, s := range segs {
		want := make([]float64, n)
		blas.Dgemv(blas.Trans, s.N, n, 2, bh.Data[s.B:], bh.Stride, ah.Data[s.A*ah.Stride+2:], ah.Stride, 0, want, 1)
		for j, v := range want {
			if got := c.At(1, s.C+j); got != v {
				t.Fatalf("segment %+v column %d: %v, want %v", s, j, got, v)
			}
		}
	}
	if c.At(0, 0) != 0 {
		t.Fatal("GemmRow wrote outside its output row")
	}
	if got, want := d.TimeBreakdown()["gemv"], d.Params.GemvDevice(9, n); got != want {
		t.Fatalf("GemmRow charged %v, want one GEMV over 9×%d: %v", got, n, want)
	}
}
