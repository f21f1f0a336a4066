package gpu

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/sim"
)

func newReal() *Device { return New(sim.K40c(), Real) }

func TestRoundTripTransfers(t *testing.T) {
	d := newReal()
	h := matrix.Random(6, 5, 1)
	dm := d.Alloc(8, 8)
	d.H2D(dm, 1, 2, h)
	back := matrix.New(6, 5)
	d.D2H(back, dm, 1, 2)
	if !h.Equal(back) {
		t.Fatal("H2D/D2H round trip corrupted data")
	}
}

func TestTransfersAdvanceClocks(t *testing.T) {
	d := newReal()
	h := matrix.Random(100, 100, 2)
	dm := d.Alloc(100, 100)
	before := d.Host.Tail()
	d.H2D(dm, 0, 0, h)
	if d.Host.Tail() <= before {
		t.Fatal("sync H2D must block the host (advance host clock)")
	}
	if d.Copy.Tail() == 0 {
		t.Fatal("copy stream clock did not advance")
	}
	cnt, bytes := d.TransferStats()
	if cnt != 1 || bytes != 100*100*8 {
		t.Fatalf("transfer stats %d/%d", cnt, bytes)
	}
}

func TestAsyncCopyOverlapsCompute(t *testing.T) {
	d := newReal()
	a := d.Alloc(500, 500)
	b := d.Alloc(500, 500)
	c := d.Alloc(500, 500)
	// Launch a long kernel, then an independent async D2H: the copy should
	// finish before the kernel (overlap), so makespan < sum of durations.
	kEnd := d.Gemm(blas.NoTrans, blas.NoTrans, 500, 500, 500, 1, a, 0, 0, b, 0, 0, 0, c, 0, 0)
	host := matrix.New(100, 100)
	cpEnd := d.D2HAsync(host, a, 0, 0)
	if cpEnd.At >= kEnd.At {
		t.Fatalf("async copy (%.6g) should overlap and finish before the big kernel (%.6g)", cpEnd.At, kEnd.At)
	}
	d.DeviceSynchronize()
	if d.Host.Tail() < kEnd.At {
		t.Fatal("DeviceSynchronize must advance host to the last kernel")
	}
}

func TestKernelFIFOOrdering(t *testing.T) {
	d := newReal()
	a := d.Alloc(10, 10)
	e1 := d.CopyBlock(a, 0, 1, a, 0, 0, 10, 1)
	e2 := d.CopyBlock(a, 0, 2, a, 0, 0, 10, 1)
	if e2.At <= e1.At {
		t.Fatal("compute stream must be FIFO")
	}
}

func TestDependencyAcrossStreams(t *testing.T) {
	d := newReal()
	a := d.Alloc(200, 200)
	h := matrix.Random(200, 200, 3)
	cp := d.H2DAsync(a, 0, 0, h)
	// Kernel depending on the copy cannot start before it completes.
	k := d.CopyBlock(a, 0, 1, a, 0, 0, 200, 1, cp)
	if k.At < cp.At {
		t.Fatalf("kernel (%.6g) started before its dependency (%.6g)", k.At, cp.At)
	}
}

func TestGemmKernelComputes(t *testing.T) {
	d := newReal()
	ah := matrix.Random(4, 3, 1)
	bh := matrix.Random(3, 5, 2)
	a := d.Alloc(4, 3)
	b := d.Alloc(3, 5)
	c := d.Alloc(4, 5)
	d.H2D(a, 0, 0, ah)
	d.H2D(b, 0, 0, bh)
	d.Gemm(blas.NoTrans, blas.NoTrans, 4, 5, 3, 1, a, 0, 0, b, 0, 0, 0, c, 0, 0)
	got := matrix.New(4, 5)
	d.D2H(got, c, 0, 0)

	want := matrix.New(4, 5)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, 4, 5, 3, 1, ah.Data, ah.Stride, bh.Data, bh.Stride, 0, want.Data, want.Stride)
	if got.Sub(want).MaxAbs() > 1e-13 {
		t.Fatal("device GEMM result wrong")
	}
}

func TestGemvAndSumKernels(t *testing.T) {
	d := newReal()
	ah := matrix.Random(5, 4, 7)
	a := d.Alloc(5, 4)
	d.H2D(a, 0, 0, ah)
	x := d.Alloc(4, 1)
	xh := matrix.FromRows([][]float64{{1}, {1}, {1}, {1}})
	d.H2D(x, 0, 0, xh)
	y := d.Alloc(5, 1)
	d.Gemv(blas.NoTrans, 5, 4, 1, a, 0, 0, x, 0, 0, 0, y, 0, 0)
	yh := matrix.New(5, 1)
	d.D2H(yh, y, 0, 0)
	rs := ah.RowSums()
	for i := range rs {
		if math.Abs(yh.At(i, 0)-rs[i]) > 1e-13 {
			t.Fatalf("Gemv row sum %d: %v vs %v", i, yh.At(i, 0), rs[i])
		}
	}
}

func TestRowColSumsKernels(t *testing.T) {
	d := newReal()
	ah := matrix.Random(6, 6, 9)
	a := d.Alloc(7, 7)
	d.H2D(a, 0, 0, ah)
	// The row sums land in column 6, the column sums in row 6: the
	// bordered layout whose totals Totals compares.
	d.RowSums(a, 0, 0, 6, 6, a, 0, 6)
	d.ColSums(a, 0, 0, 6, 6, a, 6, 0)

	rh := matrix.New(6, 1)
	d.D2H(rh, a, 0, 6)
	ch := matrix.New(1, 6)
	d.D2H(ch, a, 6, 0)
	wantR := ah.RowSums()
	wantC := ah.ColSums()
	for i := 0; i < 6; i++ {
		if math.Abs(rh.At(i, 0)-wantR[i]) > 1e-13 {
			t.Fatalf("RowSums[%d]", i)
		}
		if math.Abs(ch.At(0, i)-wantC[i]) > 1e-13 {
			t.Fatalf("ColSums[%d]", i)
		}
	}
	var sr, sc float64
	d.Totals(a, 0, 6, 6, 0, 6, &sr, &sc)
	d.ReadScalars(2)
	total := 0.0
	for _, v := range wantR {
		total += v
	}
	if math.Abs(sr-total) > 1e-12 || math.Abs(sc-total) > 1e-12 {
		t.Fatalf("Totals: Σrow sums %v, Σcol sums %v, want %v", sr, sc, total)
	}
}

func TestTrmmAxpyCopyBlockKernels(t *testing.T) {
	d := newReal()
	th := matrix.FromRows([][]float64{{2, 1}, {0, 3}})
	bh := matrix.Random(2, 3, 4)
	tm := d.Alloc(2, 2)
	b := d.Alloc(2, 3)
	d.H2D(tm, 0, 0, th)
	d.H2D(b, 0, 0, bh)
	d.Trmm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 2, 3, 1, tm, 0, 0, b, 0, 0)
	got := matrix.New(2, 3)
	d.D2H(got, b, 0, 0)
	want := bh.Clone()
	blas.Dtrmm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 2, 3, 1, th.Data, th.Stride, want.Data, want.Stride)
	if got.Sub(want).MaxAbs() > 1e-14 {
		t.Fatal("device Trmm wrong")
	}

	d.SubBlock(b, 0, 1, b, 0, 0, 2, 1)
	d.CopyBlock(b, 0, 2, b, 0, 0, 2, 1)
	got2 := matrix.New(2, 3)
	d.D2H(got2, b, 0, 0)
	for i := 0; i < 2; i++ {
		if got2.At(i, 2) != got2.At(i, 0) {
			t.Fatal("CopyBlock did not copy")
		}
		if math.Abs(got2.At(i, 1)-(want.At(i, 1)-want.At(i, 0))) > 1e-12 {
			t.Fatal("SubBlock wrong")
		}
	}
}

func TestLarfbKernelMatchesHost(t *testing.T) {
	// Device Larfb must agree with the host lapack.Dlarfb — it is the
	// left-update kernel of Algorithm 2 line 8.
	d := newReal()
	n, k, nc := 12, 4, 7
	vh := matrix.New(n, k)
	rng := matrix.NewRNG(3)
	tauh := make([]float64, k)
	for j := 0; j < k; j++ {
		vh.Set(j, j, 1)
		for i := j + 1; i < n; i++ {
			vh.Set(i, j, rng.NormFloat64())
		}
		tauh[j] = rng.Float64()
	}
	th := matrix.New(k, k)
	// Build a T consistent with V: use Dlarft via a quick local copy.
	buildT(vh, tauh, th)

	ch := matrix.Random(n, nc, 8)
	want := ch.Clone()
	hostLarfb(vh, th, want)

	v := d.Alloc(n, k)
	tm := d.Alloc(k, k)
	c := d.Alloc(n, nc)
	w := d.Alloc(nc, k)
	d.H2D(v, 0, 0, vh)
	d.H2D(tm, 0, 0, th)
	d.H2D(c, 0, 0, ch)
	d.Larfb(n, nc, k, v, 0, 0, tm, 0, 0, c, 0, 0, w)
	got := matrix.New(n, nc)
	d.D2H(got, c, 0, 0)
	if md := got.Sub(want).MaxAbs(); md > 1e-12 {
		t.Fatalf("device Larfb differs from host by %v", md)
	}
}

// Larfb is LarfbForm then LarfbApply at −1. The fault-tolerant left
// update runs the halves separately, forming W into a retained workspace
// and applying it through a second one, so a reversal can replay W at +1.
func TestLarfbHalves(t *testing.T) {
	d := newReal()
	n, k, nc, wi := 12, 4, 7, 2
	vh := matrix.Random(n, k, 3)
	th := matrix.Random(k, k, 4)
	ch := matrix.Random(n, nc, 8)
	v, tm := d.Alloc(n, k), d.Alloc(k, k)
	d.H2D(v, 0, 0, vh)
	d.H2D(tm, 0, 0, th)
	load := func() *Matrix {
		c := d.Alloc(n, nc)
		d.H2D(c, 0, 0, ch)
		return c
	}
	read := func(m *Matrix) *matrix.Matrix {
		h := matrix.New(m.Rows, m.Cols)
		d.D2H(h, m, 0, 0)
		return h
	}

	whole := load()
	d.Larfb(n, nc, k, v, 0, 0, tm, 0, 0, whole, 0, 0, d.Alloc(nc, k))
	halves := load()
	w := d.Alloc(wi+nc, k)
	d.LarfbForm(n, nc, k, v, 0, 0, tm, 0, 0, halves, 0, 0, w, wi)
	d.LarfbApply(-1, n, nc, k, v, 0, 0, halves, 0, 0, w, wi, nil)
	if !read(halves).Equal(read(whole)) {
		t.Fatal("LarfbForm + LarfbApply(-1) differs from Larfb")
	}

	c := load()
	d.LarfbForm(n, nc, k, v, 0, 0, tm, 0, 0, c, 0, 0, w, wi)
	formed := read(w)
	w2 := d.Alloc(wi+nc, k)
	d.LarfbApply(-1, n, nc, k, v, 0, 0, c, 0, 0, w, wi, w2)
	if !read(w).Equal(formed) {
		t.Fatal("LarfbApply through a second workspace overwrote W")
	}
	if !read(c).Equal(read(whole)) {
		t.Fatal("LarfbApply through a second workspace changed the result")
	}
	d.LarfbApply(+1, n, nc, k, v, 0, 0, c, 0, 0, w, wi, w2)
	if md := read(c).Sub(ch).MaxAbs(); md > 1e-12 {
		t.Fatalf("LarfbApply(+1) after (-1) leaves C off by %v", md)
	}
}

func TestPokeAndFlipBit(t *testing.T) {
	d := newReal()
	a := d.Alloc(3, 3)
	h := matrix.Random(3, 3, 5)
	d.H2D(a, 0, 0, h)
	old := d.Poke(a, 1, 2, 7.5)
	if old != h.At(1, 2) {
		t.Fatalf("Poke returned %v, want %v", old, h.At(1, 2))
	}
	if got := a.At(1, 2); math.Abs(got-(old+7.5)) > 1e-15 {
		t.Fatalf("Poke wrote %v", got)
	}
	before := a.At(0, 0)
	d.FlipBit(a, 0, 0, 62)
	if a.At(0, 0) == before {
		t.Fatal("FlipBit did not change the value")
	}
	d.FlipBit(a, 0, 0, 62)
	if a.At(0, 0) != before {
		t.Fatal("double FlipBit must restore the value")
	}
}

func TestCostOnlyModeNoData(t *testing.T) {
	d := New(sim.K40c(), CostOnly)
	a := d.Alloc(1000, 1000)
	if a.Data != nil {
		t.Fatal("CostOnly alloc must not allocate data")
	}
	h := matrix.New(10, 10)
	d.H2D(a, 0, 0, h)
	d.Gemm(blas.NoTrans, blas.NoTrans, 1000, 1000, 1000, 1, a, 0, 0, a, 0, 0, 0, a, 0, 0)
	d.D2H(h, a, 0, 0)
	if d.Elapsed() <= 0 {
		t.Fatal("CostOnly must still advance the clock")
	}
	if d.Poke(a, 0, 0, 1) != 0 {
		t.Fatal("CostOnly Poke must be a no-op")
	}
	ran := false
	d.HostOp(1e-6, func() { ran = true })
	if ran {
		t.Fatal("CostOnly HostOp must not execute the closure")
	}
}

func TestCostOnlyMatchesRealClock(t *testing.T) {
	// The same op sequence must produce the same simulated time in both
	// modes — that is the property that lets Figure 6 run cost-only.
	run := func(mode Mode) float64 {
		d := New(sim.K40c(), mode)
		a := d.Alloc(64, 64)
		h := matrix.Random(64, 64, 1)
		d.H2D(a, 0, 0, h)
		d.Gemm(blas.NoTrans, blas.NoTrans, 64, 64, 64, 1, a, 0, 0, a, 0, 0, 0, a, 0, 0)
		d.D2HAsync(h, a, 0, 0)
		d.DeviceSynchronize()
		return d.Elapsed()
	}
	if r, c := run(Real), run(CostOnly); math.Abs(r-c) > 1e-12 {
		t.Fatalf("real %v vs cost-only %v", r, c)
	}
}

func TestAllocAccounting(t *testing.T) {
	d := newReal()
	m := d.Alloc(100, 50)
	if d.AllocatedBytes() != 100*50*8 {
		t.Fatalf("alloc bytes %d", d.AllocatedBytes())
	}
	d.Free(m)
	if d.AllocatedBytes() != 0 {
		t.Fatalf("free bytes %d", d.AllocatedBytes())
	}
}

func TestHostOpChargesTime(t *testing.T) {
	d := newReal()
	before := d.Host.Tail()
	ran := false
	d.HostOp(0.5, func() { ran = true })
	if !ran {
		t.Fatal("Real HostOp must execute")
	}
	if d.Host.Tail()-before != 0.5 {
		t.Fatalf("host charged %v", d.Host.Tail()-before)
	}
}

// buildT constructs the compact-WY T factor on the host (test helper).
func buildT(v *matrix.Matrix, tau []float64, t *matrix.Matrix) {
	n, k := v.Rows, v.Cols
	for i := 0; i < k; i++ {
		if tau[i] == 0 {
			for j := 0; j < i; j++ {
				t.Set(j, i, 0)
			}
		} else {
			for j := 0; j < i; j++ {
				s := 0.0
				for r := i; r < n; r++ {
					s += v.At(r, j) * v.At(r, i)
				}
				t.Set(j, i, -tau[i]*s)
			}
			blas.Dtrmv(blas.Upper, blas.NoTrans, blas.NonUnit, i, t.Data, t.Stride, t.Data[i*t.Stride:], 1)
		}
		t.Set(i, i, tau[i])
	}
}

// hostLarfb applies (I - V T Vᵀ)ᵀ C on the host (test helper).
func hostLarfb(v, t, c *matrix.Matrix) {
	n, k := v.Rows, v.Cols
	nc := c.Cols
	// W = Cᵀ V (nc×k)
	w := matrix.New(nc, k)
	blas.Dgemm(blas.Trans, blas.NoTrans, nc, k, n, 1, c.Data, c.Stride, v.Data, v.Stride, 0, w.Data, w.Stride)
	// W = W T (apply Hᵀ = I - V Tᵀ Vᵀ ⇒ W := W·(Tᵀ)ᵀ = W·T)
	blas.Dtrmm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, nc, k, 1, t.Data, t.Stride, w.Data, w.Stride)
	// C -= V Wᵀ
	blas.Dgemm(blas.NoTrans, blas.Trans, n, nc, k, -1, v.Data, v.Stride, w.Data, w.Stride, 1, c.Data, c.Stride)
}

func TestTimeBreakdownAccumulates(t *testing.T) {
	d := newReal()
	a := d.Alloc(64, 64)
	h := matrix.Random(64, 64, 1)
	d.H2D(a, 0, 0, h)
	d.Gemm(blas.NoTrans, blas.NoTrans, 64, 64, 64, 1, a, 0, 0, a, 0, 0, 0, a, 0, 0)
	d.Gemv(blas.NoTrans, 64, 64, 1, a, 0, 0, a, 0, 0, 0, a, 0, 1)
	d.HostOp(0.25, nil)
	d.D2H(h, a, 0, 0)
	bd := d.TimeBreakdown()
	for _, k := range []string{"gemm", "gemv", "h2d", "d2h", "host"} {
		if bd[k] <= 0 {
			t.Fatalf("kind %q not accounted: %v", k, bd)
		}
	}
	if bd["host"] != 0.25 {
		t.Fatalf("host time %v", bd["host"])
	}
	// The returned map is a copy.
	bd["gemm"] = -1
	if d.TimeBreakdown()["gemm"] <= 0 {
		t.Fatal("TimeBreakdown must return a copy")
	}
}

func TestTraceRecordsSpans(t *testing.T) {
	d := newReal()
	d.EnableTrace()
	a := d.Alloc(32, 32)
	h := matrix.Random(32, 32, 1)
	d.H2D(a, 0, 0, h)
	d.Gemm(blas.NoTrans, blas.NoTrans, 32, 32, 32, 1, a, 0, 0, a, 0, 0, 0, a, 0, 0)
	d.HostOp(1e-5, nil)
	d.D2H(h, a, 0, 0)
	spans := d.Trace()
	if len(spans) < 4 {
		t.Fatalf("%d spans recorded", len(spans))
	}
	lanes := map[string]bool{}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("negative span: %+v", s)
		}
		lanes[s.Lane] = true
	}
	for _, want := range []string{"host", "gpu-compute", "gpu-copy"} {
		if !lanes[want] {
			t.Fatalf("lane %q missing", want)
		}
	}
	var buf bytes.Buffer
	if err := d.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	slices := 0
	for _, e := range events {
		if e["ph"] == "X" {
			slices++
		}
	}
	if slices != len(spans) {
		t.Fatalf("%d slice events vs %d spans", slices, len(spans))
	}
	var sum bytes.Buffer
	d.TraceSummary(&sum)
	if !strings.Contains(sum.String(), "gpu-compute") {
		t.Fatalf("summary:\n%s", sum.String())
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	d := newReal()
	a := d.Alloc(4, 4)
	d.CopyBlock(a, 0, 1, a, 0, 0, 4, 1)
	if len(d.Trace()) != 0 {
		t.Fatal("tracing must be opt-in")
	}
}
