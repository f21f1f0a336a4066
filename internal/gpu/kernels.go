package gpu

import (
	"repro/internal/blas"
	"repro/internal/sim"
)

// Device BLAS kernels. Each call enqueues one kernel on the compute stream
// (FIFO), charges the cost model, and — in Real mode — executes the
// arithmetic on the device buffers. All kernels return their completion
// event so transfers can depend on them.
//
// In Real mode the arithmetic runs on the host BLAS substrate, which is
// itself blocked and pool-parallel (internal/blas): large device Gemm
// calls shard their tile grid across the shared worker pool, bounded by
// blas.SetMaxProcs. Timing remains governed solely by the cost model —
// the simulated clock never observes host wall time — so the pool is a
// pure wall-clock accelerator for Real-mode runs, and results stay
// bitwise identical at every SetMaxProcs setting.

// launch enqueues a kernel of the given duration on the compute stream,
// accounting its cost under the given operation family.
func (d *Device) launch(kind opKind, cost float64, deps []sim.Event, f func()) sim.Event {
	return d.launchOn(d.Compute, kind, cost, deps, f)
}

// launchOn enqueues a kernel on an explicit stream (Compute for the main
// FIFO, Lookahead for the priority stream of the lookahead schedule).
func (d *Device) launchOn(t *sim.Timeline, kind opKind, cost float64, deps []sim.Event, f func()) sim.Event {
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
// kernels. It models an FT-BLAS-style kernel that duplicates the FMA
// stream in registers: on a bandwidth-bound op that adds ALU work but no
// memory traffic, so the slowdown sits near the ALU share of the kernel
// (~10%). The host implementation is not that kernel: DgemvFT runs Dgemv
// twice and bit-compares, which re-reads A and measures 2.0× Dgemv at the
// 512×256 hot shape (BenchmarkDgemvFT against BenchmarkDgemvNoTransSlab,
// DESIGN.md §14). The factor keeps its modeled value, which every
// modeled artifact and benchmark figure is computed with.
const ftGemvCostFactor = 1.10

// Gemm enqueues C(ci:ci+m, cj:cj+n) := alpha·op(A)·op(B) + beta·C on the
// compute stream, where op(A) is m×k at (ai, aj) and op(B) is k×n at
// (bi, bj). With the fused-ABFT substrate on (SetSubstrateFused) the
// kernel verifies its own output in the macro-kernel epilogue and is
// charged the modeled checksum premium; detections are accumulated in
// FTStats, never silently dropped. The substrate only detects — GEMM is
// not idempotent, so correction stays with the FT layer's sweep.
func (d *Device) Gemm(tA, tB blas.Transpose, m, n, k int, alpha float64, a *Matrix, ai, aj int, b *Matrix, bi, bj int, beta float64, c *Matrix, ci, cj int, deps ...sim.Event) sim.Event {
	cost := d.Params.GemmDevice(m, n, k)
	if d.fusedFT {
		cost *= 1 + blas.FTGemmOverheadFrac(m, n, k)
	}
	return d.launch(kindGemm, cost, deps, func() {
		if m == 0 || n == 0 {
			return
		}
		if d.fusedFT {
			res, _ := blas.DgemmFT(tA, tB, m, n, k, alpha, a.ptr(ai, aj), a.Stride, b.ptr(bi, bj), b.Stride, beta, c.ptr(ci, cj), c.Stride)
			d.noteFT(res.Checks, res.Detections, res.NonFinite)
			return
		}
		blas.Dgemm(tA, tB, m, n, k, alpha, a.ptr(ai, aj), a.Stride, b.ptr(bi, bj), b.Stride, beta, c.ptr(ci, cj), c.Stride)
	})
}

// Gemv enqueues y := alpha·op(A)·x + beta·y with A m×n at (ai, aj), x a
// column of xm at (xi, xj), and y a column of ym at (yi, yj). With the
// fused substrate on, the kernel runs under dual modular redundancy
// (blas.DgemvFT) at the modeled ~10% premium.
func (d *Device) Gemv(trans blas.Transpose, m, n int, alpha float64, a *Matrix, ai, aj int, xm *Matrix, xi, xj int, beta float64, ym *Matrix, yi, yj int, deps ...sim.Event) sim.Event {
	cost := d.Params.GemvDevice(m, n)
	if d.fusedFT {
		cost *= ftGemvCostFactor
	}
	return d.launch(kindGemv, cost, deps, func() {
		if m == 0 || n == 0 {
			return
		}
		if d.fusedFT {
			res, _ := blas.DgemvFT(trans, m, n, alpha, a.ptr(ai, aj), a.Stride, xm.ptr(xi, xj), 1, beta, ym.ptr(yi, yj), 1)
			d.noteFT(res.Checks, res.Detections, res.NonFinite)
			return
		}
		blas.Dgemv(trans, m, n, alpha, a.ptr(ai, aj), a.Stride, xm.ptr(xi, xj), 1, beta, ym.ptr(yi, yj), 1)
	})
}

// GemvLA enqueues the same y := alpha·op(A)·x + beta·y as Gemv, but on the
// lookahead stream instead of the main compute FIFO, with extraCost extra
// modeled seconds folded into the kernel. The lookahead schedule issues the
// next panel's GEMVs here, depending only on the priority part of the
// current trailing update; on real hardware each such GEMV would apply the
// still-pending remainder update to its output as a small correction term,
// and extraCost charges that correction work so the modeled overlap stays
// honest. Real-mode arithmetic is unaffected: kernels execute eagerly in
// program order, and the program still issues the remainder update before
// the next panel factorization runs.
func (d *Device) GemvLA(trans blas.Transpose, m, n int, extraCost float64, alpha float64, a *Matrix, ai, aj int, xm *Matrix, xi, xj int, beta float64, ym *Matrix, yi, yj int, deps ...sim.Event) sim.Event {
	cost := d.Params.GemvDevice(m, n)
	if d.fusedFT {
		cost *= ftGemvCostFactor
	}
	return d.launchOn(d.Lookahead, kindGemv, cost+extraCost, deps, func() {
		if m == 0 || n == 0 {
			return
		}
		if d.fusedFT {
			res, _ := blas.DgemvFT(trans, m, n, alpha, a.ptr(ai, aj), a.Stride, xm.ptr(xi, xj), 1, beta, ym.ptr(yi, yj), 1)
			d.noteFT(res.Checks, res.Detections, res.NonFinite)
			return
		}
		blas.Dgemv(trans, m, n, alpha, a.ptr(ai, aj), a.Stride, xm.ptr(xi, xj), 1, beta, ym.ptr(yi, yj), 1)
	})
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

// Axpy enqueues y := alpha·x + y over length-n column segments.
func (d *Device) Axpy(n int, alpha float64, xm *Matrix, xi, xj int, ym *Matrix, yi, yj int, deps ...sim.Event) sim.Event {
	return d.launch(kindVec, d.Params.VecDevice(n), deps, func() {
		if n == 0 {
			return
		}
		blas.Daxpy(n, alpha, xm.ptr(xi, xj), 1, ym.ptr(yi, yj), 1)
	})
}

// Scal enqueues x := alpha·x over a length-n column segment.
func (d *Device) Scal(n int, alpha float64, xm *Matrix, xi, xj int, deps ...sim.Event) sim.Event {
	return d.launch(kindVec, d.Params.VecDevice(n), deps, func() {
		if n == 0 {
			return
		}
		blas.Dscal(n, alpha, xm.ptr(xi, xj), 1)
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

// CustomLA enqueues a custom kernel on the lookahead stream instead of
// the main compute FIFO. The FT layer issues its boundary-detection sums
// here under the lookahead schedule so a verification read never queues
// behind the trailing-update kernels it is checking.
func (d *Device) CustomLA(cost float64, f func(), deps ...sim.Event) sim.Event {
	return d.launchOn(d.Lookahead, kindCustom, cost, deps, f)
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

// SetZero enqueues zeroing of an r×c block.
func (d *Device) SetZero(m *Matrix, i, j, r, c int, deps ...sim.Event) sim.Event {
	cost := d.Params.KernelLaunchSec + 8*float64(r)*float64(c)/(d.Params.GPUBandwidthGBps*1e9)
	return d.launch(kindVec, cost, deps, func() {
		for jj := 0; jj < c; jj++ {
			col := m.ptr(i, j+jj)[:r]
			for ii := range col {
				col[ii] = 0
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
		for jj := 0; jj < c; jj++ {
			col := a.ptr(i, j+jj)[:r]
			s := 0.0
			for _, v := range col {
				s += v
			}
			ym.ptr(yi, yj+jj)[0] = s
		}
	})
}

// Sum enqueues a reduction of the length-n column segment at (i, j) of m,
// returning the result through out (written in Real mode when the kernel
// executes). On real hardware the scalar result would live in device
// memory; callers needing it host-side must account for a small D2H,
// which ReadScalar models.
func (d *Device) Sum(m *Matrix, i, j, n int, out *float64, deps ...sim.Event) sim.Event {
	return d.launch(kindVec, d.Params.VecDevice(n), deps, func() {
		s := 0.0
		if n > 0 {
			col := m.ptr(i, j)[:n]
			for _, v := range col {
				s += v
			}
		}
		*out = s
	})
}

// SumRow enqueues a reduction over a length-n row segment (stride =
// m.Stride) starting at (i, j).
func (d *Device) SumRow(m *Matrix, i, j, n int, out *float64, deps ...sim.Event) sim.Event {
	return d.launch(kindVec, d.Params.VecDevice(n), deps, func() {
		s := 0.0
		for jj := 0; jj < n; jj++ {
			s += m.ptr(i, j+jj)[0]
		}
		*out = s
	})
}

// ReadScalar models the host reading one device scalar (a latency-bound
// D2H transfer); the value must already have been produced by a kernel.
func (d *Device) ReadScalar(deps ...sim.Event) {
	d.Sync(d.ReadScalarAsync(deps...))
}

// ReadScalarAsync enqueues the scalar D2H without blocking the host and
// returns its event. The lookahead schedule's optimistic detection uses
// this: the read is charged, but the host only waits for it (Sync) when
// the verdict actually demands a recovery.
func (d *Device) ReadScalarAsync(deps ...sim.Event) sim.Event {
	d.transfers++
	d.bytesMoved += 8
	cost := d.Params.Transfer(8)
	d.charge(kindD2H, cost)
	e := d.Copy.Schedule(cost, sim.Latest(d.Host.Tail(), deps))
	d.record(d.Copy.Name(), kindD2H, e.At, cost)
	return e
}

// ReadScalarTail models fetching a scalar produced at the tail of the
// compute queue through device-mapped memory: the read is charged on the
// compute stream, not the copy engine. The optimistic detection path
// needs this — its verdict waits for the whole trailing update, and a
// copy-engine read would make every later offload (the next panel's)
// queue behind that wait.
func (d *Device) ReadScalarTail(deps ...sim.Event) sim.Event {
	d.transfers++
	d.bytesMoved += 8
	cost := d.Params.Transfer(8)
	d.charge(kindD2H, cost)
	e := d.Compute.Schedule(cost, sim.Latest(d.Host.Tail(), deps))
	d.record(d.Compute.Name(), kindD2H, e.At, cost)
	return e
}

// Larfb enqueues the block-reflector application
// C := (I − V·T·Vᵀ)ᵒᵖ · C on the compute stream as its constituent
// GEMM/TRMM kernels (forward column-wise storage, left side), matching
// LAPACK DLARFB's kernel decomposition so the cost model sees the same
// kernel mix as CUBLAS would. C is m×n at (ci, cj) of cm; V is m×k at
// (vi, vj) of vm; T is k×k at (ti, tj) of tm; w is a k×n (ldw ≥ n)
// device workspace.
func (d *Device) Larfb(trans blas.Transpose, m, n, k int, vm *Matrix, vi, vj int, tm *Matrix, ti, tj int, cm *Matrix, ci, cj int, w *Matrix, deps ...sim.Event) sim.Event {
	if m == 0 || n == 0 || k == 0 {
		return sim.Event{At: d.Compute.Tail()}
	}
	transT := blas.Trans
	if trans == blas.Trans {
		transT = blas.NoTrans
	}
	// W := C1ᵀ (n×k)
	cost := d.Params.KernelLaunchSec + 16*float64(n)*float64(k)/(d.Params.GPUBandwidthGBps*1e9)
	e := d.launch(kindCopy, cost, deps, func() {
		for j := 0; j < k; j++ {
			blas.Dcopy(n, cm.ptr(ci+j, cj), cm.Stride, w.ptr(0, j), 1)
		}
	})
	// W := W · V1
	e = d.Trmm(blas.Right, blas.Lower, blas.NoTrans, blas.Unit, n, k, 1, vm, vi, vj, w, 0, 0, e)
	if m > k {
		// W += C2ᵀ · V2
		e = d.Gemm(blas.Trans, blas.NoTrans, n, k, m-k, 1, cm, ci+k, cj, vm, vi+k, vj, 1, w, 0, 0, e)
	}
	// W := W · Tᵀ (or T)
	e = d.Trmm(blas.Right, blas.Upper, transT, blas.NonUnit, n, k, 1, tm, ti, tj, w, 0, 0, e)
	if m > k {
		// C2 −= V2 · Wᵀ
		e = d.Gemm(blas.NoTrans, blas.Trans, m-k, n, k, -1, vm, vi+k, vj, w, 0, 0, 1, cm, ci+k, cj, e)
	}
	// W := W · V1ᵀ
	e = d.Trmm(blas.Right, blas.Lower, blas.Trans, blas.Unit, n, k, 1, vm, vi, vj, w, 0, 0, e)
	// C1 −= Wᵀ
	cost = d.Params.KernelLaunchSec + 24*float64(n)*float64(k)/(d.Params.GPUBandwidthGBps*1e9)
	return d.launch(kindVec, cost, []sim.Event{e}, func() {
		for j := 0; j < k; j++ {
			for i := 0; i < n; i++ {
				cm.ptr(ci+j, cj+i)[0] -= w.ptr(i, j)[0]
			}
		}
	})
}
