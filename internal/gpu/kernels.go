package gpu

import (
	"repro/internal/blas"
	"repro/internal/sim"
)

// Device BLAS kernels. Each call enqueues one kernel on the current
// stream (the compute stream unless SetStream chose another; FIFO),
// charges the cost model, and — in Real mode — executes the arithmetic
// on the device buffers. All kernels return their completion event so
// transfers can depend on them.
//
// In Real mode the arithmetic runs on the host BLAS substrate, which is
// itself blocked and pool-parallel (internal/blas): large device Gemm
// calls shard their tile grid across the shared worker pool, bounded by
// blas.SetMaxProcs. Timing remains governed solely by the cost model —
// the simulated clock never observes host wall time — so the pool is a
// pure wall-clock accelerator for Real-mode runs, and results stay
// bitwise identical at every SetMaxProcs setting.

// launch enqueues a kernel of the given duration on the current stream
// (SetStream; the compute stream by default), accounting its cost under
// the given operation family.
func (d *Device) launch(kind opKind, cost float64, deps []sim.Event, f func()) sim.Event {
	return d.launchOn(d.current(), kind, cost, deps, f)
}

// launchOn enqueues a kernel on an explicit stream (Compute for the main
// FIFO, Lookahead for the priority stream of the lookahead schedule).
func (d *Device) launchOn(t *sim.Timeline, kind opKind, cost float64, deps []sim.Event, f func()) sim.Event {
	if t == d.stretched {
		cost *= d.stretch
	}
	d.kernels++
	d.charge(kind, cost)
	e := t.Schedule(cost, d.enqueue(deps))
	d.record(t.Name(), kind, e.At, cost)
	if d.Mode == Real && f != nil {
		f()
	}
	return e
}

// ftGemvCostFactor is the modeled device premium of the DMR Level-2
// kernels. It models an FT-BLAS-style kernel that duplicates the
// arithmetic in registers: on a bandwidth-bound op that adds ALU work but
// no memory traffic, so the slowdown sits near the ALU share of the
// kernel (~10%). The host's NoTrans DgemvFT is now that kind of kernel —
// it reads A once and feeds two multiply-add chains — but it still pays
// for the shadow copy, the second output stream and the compare, so it
// measures above 1.10× Dgemv (BENCH_blasft.json's gemv rows, DESIGN.md
// §14). The factor keeps its modeled value, which every modeled artifact
// and benchmark figure is computed with.
const ftGemvCostFactor = 1.10

// Gemm enqueues C(ci:ci+m, cj:cj+n) := alpha·op(A)·op(B) + beta·C on the
// compute stream, where op(A) is m×k at (ai, aj) and op(B) is k×n at
// (bi, bj). With the fused-ABFT substrate on (SetSubstrateFused) the
// kernel verifies its own output in the macro-kernel epilogue and is
// charged the modeled checksum premium; detections are accumulated in
// FTStats, never silently dropped. The substrate only detects — GEMM is
// not idempotent, so correction stays with the FT layer's sweep.
func (d *Device) Gemm(tA, tB blas.Transpose, m, n, k int, alpha float64, a *Matrix, ai, aj int, b *Matrix, bi, bj int, beta float64, c *Matrix, ci, cj int, deps ...sim.Event) sim.Event {
	return d.launch(kindGemm, d.gemmCost(m, n, k), deps, func() {
		d.gemm(tA, tB, m, n, k, alpha, a, ai, aj, b, bi, bj, beta, c, ci, cj)
	})
}

// gemmCost is the modeled device time of an m×n×k GEMM, fused premium
// included.
func (d *Device) gemmCost(m, n, k int) float64 {
	cost := d.Params.GemmDevice(m, n, k)
	if d.fusedFT {
		cost *= 1 + blas.FTGemmOverheadFrac(m, n, k)
	}
	return cost
}

// gemm is a GEMM kernel's arithmetic: DgemmFT under the fused substrate
// (its verdict folded into FTStats), Dgemm otherwise.
func (d *Device) gemm(tA, tB blas.Transpose, m, n, k int, alpha float64, a *Matrix, ai, aj int, b *Matrix, bi, bj int, beta float64, c *Matrix, ci, cj int) {
	if m == 0 || n == 0 {
		return
	}
	if d.fusedFT {
		res, _ := blas.DgemmFT(tA, tB, m, n, k, alpha, a.ptr(ai, aj), a.Stride, b.ptr(bi, bj), b.Stride, beta, c.ptr(ci, cj), c.Stride)
		d.noteFT(res.Checks, res.Detections, res.NonFinite)
		return
	}
	blas.Dgemm(tA, tB, m, n, k, alpha, a.ptr(ai, aj), a.Stride, b.ptr(bi, bj), b.Stride, beta, c.ptr(ci, cj), c.Stride)
}

// Gemv enqueues y := alpha·op(A)·x + beta·y with A m×n at (ai, aj), x a
// column of xm at (xi, xj), and y a column of ym at (yi, yj). With the
// fused substrate on, the kernel runs under dual modular redundancy
// (blas.DgemvFT) at the modeled ~10% premium.
func (d *Device) Gemv(trans blas.Transpose, m, n int, alpha float64, a *Matrix, ai, aj int, xm *Matrix, xi, xj int, beta float64, ym *Matrix, yi, yj int, deps ...sim.Event) sim.Event {
	return d.launch(kindGemv, d.gemvCost(m, n), deps, func() {
		d.gemvCols(trans, m, n, alpha, a, ai, aj, xm, xi, xj, beta, ym, yi, yj)
	})
}

// gemvCost is the modeled device time of an m×n GEMV, DMR premium
// included.
func (d *Device) gemvCost(m, n int) float64 {
	cost := d.Params.GemvDevice(m, n)
	if d.fusedFT {
		cost *= ftGemvCostFactor
	}
	return cost
}

// gemvCols is a GEMV kernel's arithmetic with x and y columns of device
// matrices.
func (d *Device) gemvCols(trans blas.Transpose, m, n int, alpha float64, a *Matrix, ai, aj int, xm *Matrix, xi, xj int, beta float64, ym *Matrix, yi, yj int) {
	if m == 0 || n == 0 {
		return
	}
	d.gemv(trans, m, n, alpha, a.ptr(ai, aj), a.Stride, xm.ptr(xi, xj), 1, beta, ym.ptr(yi, yj), 1)
}

// gemv is a GEMV kernel's arithmetic: DgemvFT (dual modular redundancy,
// verdict folded into FTStats) under the fused substrate, Dgemv
// otherwise.
func (d *Device) gemv(trans blas.Transpose, m, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
	if d.fusedFT {
		res, _ := blas.DgemvFT(trans, m, n, alpha, a, lda, x, incX, beta, y, incY)
		d.noteFT(res.Checks, res.Detections, res.NonFinite)
		return
	}
	blas.Dgemv(trans, m, n, alpha, a, lda, x, incX, beta, y, incY)
}

// Seg is one segment of a segmented kernel (GemvSeg, GemmSeg, GemmSegRow):
// columns [A, A+N) of the left operand pair with rows [B, B+N) of the
// right operand, and the segment's result lands at output column C. One
// launch computes every segment, each with exactly the arithmetic of a
// separate kernel over it — the multi-device pool keeps one partial per
// slab that way while paying one launch per device.
type Seg struct{ A, B, N, C int }

// segCols returns the segments' total length along the shared dimension.
func segCols(segs []Seg) int {
	t := 0
	for _, s := range segs {
		t += s.N
	}
	return t
}

// GemvSeg enqueues one launch on stream t computing, for every segment s,
//
//	y(yi:yi+m, s.C) := alpha·A(ai:ai+m, s.A:s.A+s.N)·x(s.B:s.B+s.N, xj) + beta·y(yi:yi+m, s.C)
//
// a GEMV whose columns are split into segments that each write their own
// output column. It is charged as one GEMV over all the segments' columns
// plus extraCost modeled seconds.
//
// t is the main compute FIFO (d.Compute) or, in the lookahead schedule,
// d.Lookahead: there the next panel's GEMVs depend only on the priority
// part of the current trailing update; on real hardware each such GEMV
// would apply the still-pending remainder update to its output as a small
// correction term, and extraCost charges that correction work so the
// modeled overlap stays honest. Real-mode arithmetic is unaffected:
// kernels execute eagerly in program order, and the program still issues
// the remainder update before the next panel factorization runs.
func (d *Device) GemvSeg(t *sim.Timeline, extraCost float64, m int, alpha float64, a *Matrix, ai int, x *Matrix, xj int, beta float64, y *Matrix, yi int, segs []Seg, deps ...sim.Event) sim.Event {
	return d.launchOn(t, kindGemv, d.gemvCost(m, segCols(segs))+extraCost, deps, func() {
		for _, s := range segs {
			d.gemvCols(blas.NoTrans, m, s.N, alpha, a, ai, s.A, x, s.B, xj, beta, y, yi, s.C)
		}
	})
}

// GemmSeg enqueues one launch computing, for every segment s,
//
//	C(ci:ci+m, s.C:s.C+n) := alpha·A(ai:ai+m, s.A:s.A+s.N)·B(s.B:s.B+s.N, bj:bj+n) + beta·C(…)
//
// a split-K GEMM that keeps one partial product per segment of the inner
// dimension. It is charged as one m×n GEMM over the segments' total
// inner dimension.
func (d *Device) GemmSeg(m, n int, alpha float64, a *Matrix, ai int, b *Matrix, bj int, beta float64, c *Matrix, ci int, segs []Seg, deps ...sim.Event) sim.Event {
	return d.launch(kindGemm, d.gemmCost(m, n, segCols(segs)), deps, func() {
		d.gemmSeg(m, n, alpha, a, ai, b, bj, beta, c, ci, segs)
	})
}

// gemmSeg is GemmSeg's arithmetic.
func (d *Device) gemmSeg(m, n int, alpha float64, a *Matrix, ai int, b *Matrix, bj int, beta float64, c *Matrix, ci int, segs []Seg) {
	for _, s := range segs {
		d.gemm(blas.NoTrans, blas.NoTrans, m, n, s.N, alpha, a, ai, s.A, b, s.B, bj, beta, c, ci, s.C)
	}
}

// GemmSegRow is GemmSeg with a checksum row riding the same launch: for
// every segment it also computes the one-row product (see gemmRow) of
// row ar of A into row ci+m of C. It is charged as the GEMM plus that
// row's GEMV, less the row's own launch.
func (d *Device) GemmSegRow(m, n int, alpha float64, a *Matrix, ai, ar int, b *Matrix, bj int, beta float64, c *Matrix, ci int, segs []Seg, deps ...sim.Event) sim.Event {
	k := segCols(segs)
	cost := d.gemmCost(m, n, k) + d.gemvCost(k, n) - d.Params.KernelLaunchSec
	return d.launch(kindGemm, cost, deps, func() {
		d.gemmSeg(m, n, alpha, a, ai, b, bj, beta, c, ci, segs)
		d.gemmRow(n, alpha, a, ar, b, bj, beta, c, ci+m, segs)
	})
}

// GemmChkRow enqueues the GEMM C(ci:ci+m, cj:cj+n) := alpha·A·B +
// beta·C (A m×k at (ai, aj), B k×n at (bi, bj), neither transposed)
// with its checksum row riding the same launch:
//
//	C(cr, cj:cj+n) := alpha·x·B + beta·C(cr, cj:cj+n)
//
// where x is row 0 of sums, the 1×k column sums of A — computed first
// in the launch when fresh, else left from an earlier launch. It is
// charged as the GEMM, the row's GEMV and (when fresh) the column-sum
// GEMV, less the launches folded away.
func (d *Device) GemmChkRow(m, n, k int, alpha float64, a *Matrix, ai, aj int, b *Matrix, bi, bj int, beta float64, c *Matrix, ci, cj, cr int, sums *Matrix, fresh bool, deps ...sim.Event) sim.Event {
	cost := d.gemmCost(m, n, k) + d.gemvCost(k, n) - d.Params.KernelLaunchSec
	if fresh {
		cost += d.Params.GemvDevice(m, k) - d.Params.KernelLaunchSec
	}
	return d.launch(kindGemm, cost, deps, func() {
		d.gemm(blas.NoTrans, blas.NoTrans, m, n, k, alpha, a, ai, aj, b, bi, bj, beta, c, ci, cj)
		if fresh {
			colSums(a, ai, aj, m, k, sums, 0, 0)
		}
		d.gemmRow(n, alpha, sums, 0, b, bj, beta, c, cr, []Seg{{B: bi, N: k, C: cj}})
	})
}

// gemmRow computes, for every segment s, the one-row product
//
//	C(ci, s.C:s.C+n) := alpha·A(ai, s.A:s.A+s.N)·B(s.B:s.B+s.N, bj:bj+n) + beta·C(ci, s.C:s.C+n)
//
// as the GEMV it is — y := alpha·Bᵀ·x + beta·y with x and y strided
// along rows of A and C, verified by DMR under the fused substrate. A
// GEMM kernel would run a single output row at ~1/(1+S0) of its
// efficiency, so it is charged as a GEMV over B.
func (d *Device) gemmRow(n int, alpha float64, a *Matrix, ai int, b *Matrix, bj int, beta float64, c *Matrix, ci int, segs []Seg) {
	for _, s := range segs {
		if s.N == 0 || n == 0 {
			continue
		}
		d.gemv(blas.Trans, s.N, n, alpha, b.ptr(s.B, bj), b.Stride, a.ptr(ai, s.A), a.Stride, beta, c.ptr(ci, s.C), c.Stride)
	}
}

// Trmm enqueues B := alpha·op(T)·B or alpha·B·op(T) with the t×t triangle
// at (ti, tj) of tm and B m×n at (bi, bj).
func (d *Device) Trmm(side blas.Side, uplo blas.Uplo, trans blas.Transpose, diag blas.Diag, m, n int, alpha float64, tm *Matrix, ti, tj int, b *Matrix, bi, bj int, deps ...sim.Event) sim.Event {
	t := m
	if side == blas.Right {
		t = n
	}
	return d.launch(kindTrmm, d.Params.TrmmDevice(m, n, t), deps, func() {
		if m == 0 || n == 0 {
			return
		}
		blas.Dtrmm(side, uplo, trans, diag, m, n, alpha, tm.ptr(ti, tj), tm.Stride, b.ptr(bi, bj), b.Stride)
	})
}

// CopyBlock enqueues a device-to-device copy of an r×c block.
func (d *Device) CopyBlock(dst *Matrix, di, dj int, src *Matrix, si, sj, r, c int, deps ...sim.Event) sim.Event {
	cost := d.Params.KernelLaunchSec + 16*float64(r)*float64(c)/(d.Params.GPUBandwidthGBps*1e9)
	return d.launch(kindCopy, cost, deps, func() {
		for j := 0; j < c; j++ {
			copy(dst.ptr(di, dj+j)[:r], src.ptr(si, sj+j)[:r])
		}
	})
}

// Symv enqueues y := alpha·A·x + beta·y for an n×n symmetric matrix
// (uplo triangle stored) at (ai, aj). Bandwidth-bound like GEMV but reads
// only half the matrix.
func (d *Device) Symv(uplo blas.Uplo, n int, alpha float64, a *Matrix, ai, aj int, xm *Matrix, xi, xj int, beta float64, ym *Matrix, yi, yj int, deps ...sim.Event) sim.Event {
	cost := d.Params.KernelLaunchSec + 8*float64(n)*float64(n)/2/(d.Params.GPUBandwidthGBps*1e9)
	return d.launch(kindGemv, cost, deps, func() {
		if n == 0 {
			return
		}
		blas.Dsymv(uplo, n, alpha, a.ptr(ai, aj), a.Stride, xm.ptr(xi, xj), 1, beta, ym.ptr(yi, yj), 1)
	})
}

// Syr2k enqueues the symmetric rank-2k update C := alpha·A·Bᵀ + alpha·B·Aᵀ
// + beta·C on the uplo triangle of the n×n block at (ci, cj), with A and B
// n×k at (ai, aj) and (bi, bj). This is the trailing update of the blocked
// tridiagonal reduction.
func (d *Device) Syr2k(uplo blas.Uplo, n, k int, alpha float64, a *Matrix, ai, aj int, b *Matrix, bi, bj int, beta float64, c *Matrix, ci, cj int, deps ...sim.Event) sim.Event {
	return d.launch(kindGemm, d.Params.GemmDevice(n, n, k), deps, func() {
		if n == 0 {
			return
		}
		blas.Dsyr2k(uplo, blas.NoTrans, n, k, alpha, a.ptr(ai, aj), a.Stride, b.ptr(bi, bj), b.Stride, beta, c.ptr(ci, cj), c.Stride)
	})
}

// Custom enqueues an arbitrary device kernel with an explicit modeled
// cost. The fault-tolerant layer uses this for its checksum-maintenance
// kernels (trapezoidal Hessenberg-aware sums) that have no BLAS
// counterpart; on real hardware these would be small custom CUDA kernels.
func (d *Device) Custom(cost float64, f func(), deps ...sim.Event) sim.Event {
	return d.launch(kindCustom, cost, deps, f)
}

// Add enqueues adding v to a single device element.
func (d *Device) Add(m *Matrix, i, j int, v float64, deps ...sim.Event) sim.Event {
	return d.launch(kindVec, d.Params.KernelLaunchSec, deps, func() {
		m.ptr(i, j)[0] += v
	})
}

// Set enqueues writing a single device element (used for the EI corner
// trick of DGEHRD's right update, where the stored subdiagonal element is
// temporarily replaced by the implicit unit diagonal of V).
func (d *Device) Set(m *Matrix, i, j int, v float64, deps ...sim.Event) sim.Event {
	return d.launch(kindVec, d.Params.KernelLaunchSec, deps, func() {
		m.ptr(i, j)[0] = v
	})
}

// SubBlock enqueues C := C − B over r×c blocks (element-wise subtract).
func (d *Device) SubBlock(c *Matrix, ci, cj int, b *Matrix, bi, bj, r, cols int, deps ...sim.Event) sim.Event {
	cost := d.Params.KernelLaunchSec + 24*float64(r)*float64(cols)/(d.Params.GPUBandwidthGBps*1e9)
	return d.launch(kindVec, cost, deps, func() {
		for j := 0; j < cols; j++ {
			dst := c.ptr(ci, cj+j)[:r]
			src := b.ptr(bi, bj+j)[:r]
			for i := range dst {
				dst[i] -= src[i]
			}
		}
	})
}

// RowSums enqueues y := A·e over the r×c block at (i, j): the paper's
// row-checksum generation (one GEMV against the all-ones vector).
func (d *Device) RowSums(a *Matrix, i, j, r, c int, ym *Matrix, yi, yj int, deps ...sim.Event) sim.Event {
	return d.launch(kindGemv, d.Params.GemvDevice(r, c), deps, func() {
		y := ym.ptr(yi, yj)[:r]
		for ii := range y {
			y[ii] = 0
		}
		for jj := 0; jj < c; jj++ {
			col := a.ptr(i, j+jj)[:r]
			for ii, v := range col {
				y[ii] += v
			}
		}
	})
}

// ColSums enqueues yᵀ := eᵀ·A over the r×c block at (i, j), writing the c
// results into a row segment of ym starting at (yi, yj) with stride
// ym.Stride (i.e. along a row).
func (d *Device) ColSums(a *Matrix, i, j, r, c int, ym *Matrix, yi, yj int, deps ...sim.Event) sim.Event {
	return d.launch(kindGemv, d.Params.GemvDevice(r, c), deps, func() {
		colSums(a, i, j, r, c, ym, yi, yj)
	})
}

// colSums is ColSums' arithmetic.
func colSums(a *Matrix, i, j, r, c int, ym *Matrix, yi, yj int) {
	for jj := 0; jj < c; jj++ {
		col := a.ptr(i, j+jj)[:r]
		s := 0.0
		for _, v := range col {
			s += v
		}
		ym.ptr(yi, yj+jj)[0] = s
	}
}

// Totals enqueues one launch reducing the length-n column segment at
// (ci, cj) of m into *col and the length-n row segment (stride m.Stride)
// at (ri, rj) into *row, each summed in index order; the results are
// written in Real mode when the kernel executes. It is charged as the
// two vector reductions less one launch. On real hardware the totals
// would live in device memory; a caller needing them host-side accounts
// for the small D2H that ReadScalars models.
func (d *Device) Totals(m *Matrix, ci, cj, ri, rj, n int, col, row *float64, deps ...sim.Event) sim.Event {
	cost := 2*d.Params.VecDevice(n) - d.Params.KernelLaunchSec
	return d.launch(kindVec, cost, deps, func() {
		s := 0.0
		if n > 0 {
			for _, v := range m.ptr(ci, cj)[:n] {
				s += v
			}
		}
		*col = s
		s = 0
		for jj := 0; jj < n; jj++ {
			s += m.ptr(ri, rj+jj)[0]
		}
		*row = s
	})
}

// ReadScalars models the host reading k device scalars (a latency-bound
// D2H transfer on the copy engine) and waiting for them; the values must
// already have been produced by a kernel.
func (d *Device) ReadScalars(k int, deps ...sim.Event) {
	d.transfers++
	d.bytesMoved += int64(8 * k)
	cost := d.Params.Transfer(8 * k)
	d.charge(kindD2H, cost)
	e := d.Copy.Schedule(cost, sim.Latest(d.Host.Tail(), deps))
	d.record(d.Copy.Name(), kindD2H, e.At, cost)
	d.Sync(e)
}

// ReadScalarsTail models fetching k scalars produced at the tail of the
// compute queue through device-mapped memory: the read is charged on the
// compute stream, not the copy engine. The optimistic detection path
// needs this — its verdict waits for the whole trailing update, and a
// copy-engine read would make every later offload (the next panel's)
// queue behind that wait.
func (d *Device) ReadScalarsTail(k int, deps ...sim.Event) sim.Event {
	d.transfers++
	d.bytesMoved += int64(8 * k)
	cost := d.Params.Transfer(8 * k)
	d.charge(kindD2H, cost)
	e := d.Compute.Schedule(cost, sim.Latest(d.Host.Tail(), deps))
	d.record(d.Compute.Name(), kindD2H, e.At, cost)
	return e
}

// Larfb enqueues the block-reflector application C := (I − V·T·Vᵀ)ᵀ·C
// (LAPACK DLARFB: left side, transposed, forward column-wise storage) on
// the compute stream as its constituent copy/TRMM/GEMM kernels, so the
// cost model sees the same kernel mix as CUBLAS would. It is LarfbForm
// followed by LarfbApply at sign −1. C is m×n at (ci, cj) of cm; V is m×k
// at (vi, vj) of vm; T is k×k at (ti, tj) of tm; w is an n×k (ldw ≥ n)
// device workspace.
func (d *Device) Larfb(m, n, k int, vm *Matrix, vi, vj int, tm *Matrix, ti, tj int, cm *Matrix, ci, cj int, w *Matrix, deps ...sim.Event) sim.Event {
	e := d.LarfbForm(m, n, k, vm, vi, vj, tm, ti, tj, cm, ci, cj, w, 0, deps...)
	return d.LarfbApply(-1, m, n, k, vm, vi, vj, cm, ci, cj, w, 0, nil, e)
}

// LarfbForm enqueues Larfb's first half, W := Cᵀ·V·T, into rows
// [wi, wi+n) of the workspace w. V's leading k×k block is read as unit
// lower triangular: its stored upper triangle may hold other data.
func (d *Device) LarfbForm(m, n, k int, vm *Matrix, vi, vj int, tm *Matrix, ti, tj int, cm *Matrix, ci, cj int, w *Matrix, wi int, deps ...sim.Event) sim.Event {
	if m == 0 || n == 0 || k == 0 {
		return sim.Event{At: d.current().Tail()}
	}
	// W := C1ᵀ (n×k)
	cost := d.Params.KernelLaunchSec + 16*float64(n)*float64(k)/(d.Params.GPUBandwidthGBps*1e9)
	e := d.launch(kindCopy, cost, deps, func() {
		for j := 0; j < k; j++ {
			blas.Dcopy(n, cm.ptr(ci+j, cj), cm.Stride, w.ptr(wi, j), 1)
		}
	})
	// W := W · V1
	e = d.Trmm(blas.Right, blas.Lower, blas.NoTrans, blas.Unit, n, k, 1, vm, vi, vj, w, wi, 0, e)
	if m > k {
		// W += C2ᵀ · V2
		e = d.Gemm(blas.Trans, blas.NoTrans, n, k, m-k, 1, cm, ci+k, cj, vm, vi+k, vj, 1, w, wi, 0, e)
	}
	// W := W · T
	return d.Trmm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, n, k, 1, tm, ti, tj, w, wi, 0, e)
}

// LarfbApply enqueues Larfb's second half, C += sign·V·Wᵀ, with W the
// n×k block at rows [wi, wi+n) of w. C1 takes W·V1ᵀ through a TRMM
// (V1 unit lower triangular), which overwrites W in place when w2 is nil.
// With a second workspace w2 the TRMM kernel first copies W to the same
// rows of w2 and multiplies there, in one launch charged the copy's
// traffic on top of the TRMM, so W survives: applying the same W again
// at the opposite sign undoes the call up to rounding.
func (d *Device) LarfbApply(sign float64, m, n, k int, vm *Matrix, vi, vj int, cm *Matrix, ci, cj int, w *Matrix, wi int, w2 *Matrix, deps ...sim.Event) sim.Event {
	if m == 0 || n == 0 || k == 0 {
		return sim.Event{At: d.current().Tail()}
	}
	if m > k {
		// C2 += sign · V2 · Wᵀ
		deps = []sim.Event{d.Gemm(blas.NoTrans, blas.Trans, m-k, n, k, sign, vm, vi+k, vj, w, wi, 0, 1, cm, ci+k, cj, deps...)}
	}
	// W := W · V1ᵀ (into w2 when it is set)
	var e sim.Event
	if w2 != nil {
		src := w
		w = w2
		cost := d.Params.TrmmDevice(n, k, k) + 16*float64(n)*float64(k)/(d.Params.GPUBandwidthGBps*1e9)
		e = d.launch(kindTrmm, cost, deps, func() {
			for j := 0; j < k; j++ {
				copy(w.ptr(wi, j)[:n], src.ptr(wi, j)[:n])
			}
			blas.Dtrmm(blas.Right, blas.Lower, blas.Trans, blas.Unit, n, k, 1, vm.ptr(vi, vj), vm.Stride, w.ptr(wi, 0), w.Stride)
		})
	} else {
		e = d.Trmm(blas.Right, blas.Lower, blas.Trans, blas.Unit, n, k, 1, vm, vi, vj, w, wi, 0, deps...)
	}
	// C1 += sign · Wᵀ
	cost := d.Params.KernelLaunchSec + 24*float64(n)*float64(k)/(d.Params.GPUBandwidthGBps*1e9)
	return d.launch(kindVec, cost, []sim.Event{e}, func() {
		for j := 0; j < k; j++ {
			blas.Daxpy(n, sign, w.ptr(wi, j), 1, cm.ptr(ci+j, cj), cm.Stride)
		}
	})
}
