// Package hybrid implements the MAGMA-style hybrid CPU+GPU blocked
// Hessenberg reduction — Algorithm 2 of the paper and the baseline that
// the fault-tolerant variant (internal/ft) extends.
//
// The matrix lives on the (simulated) device. Each blocked iteration:
//
//  1. copies the lower part of the next panel to the host,
//  2. factorizes the panel on the CPU (DLAHR2), with the large
//     matrix-vector product against the trailing matrix executed on the
//     device, column by column, as in MAGMA's magma_dlahr2,
//  3. uploads V, T, Y and applies the right update to the upper block
//     rows M on the device,
//  4. asynchronously sends the freshly finished leading block column of H
//     back to the host, overlapped with
//  5. the right update of the lower trailing block G and the DLARFB left
//     update (the two red lines of the paper's Algorithm 2).
//
// The remaining small trailing matrix is reduced on the host with the
// unblocked algorithm, as LAPACK's DGEHRD does.
//
// All real arithmetic — the host-side panel factorization and, in Real
// mode, the device kernels — executes on the shared internal/blas
// substrate. Its worker pool shards the tall-skinny panel products
// (m ≈ N, n ≤ nb) over a 2-D tile grid, so panel-heavy steps parallelize
// on the host even though their column count is far below the core count;
// blas.SetMaxProcs bounds that parallelism without affecting results.
package hybrid

import (
	"context"
	"errors"

	"repro/internal/blas"
	"repro/internal/devpool"
	"repro/internal/gpu"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// DefaultNB is the paper's block size.
const DefaultNB = 32

// IterInfo describes one blocked iteration, passed to the BeforeIteration
// hook (which fault campaigns use to inject errors at iteration
// boundaries, the paper's failure model).
type IterInfo struct {
	// Iter is the zero-based blocked iteration index.
	Iter int
	// Panel is the global index of the first panel column.
	Panel int
	// NB is the panel width actually used this iteration.
	NB int
	// N is the matrix order.
	N int
}

// Options configures the reduction.
type Options struct {
	// Ctx, when non-nil, cancels the reduction: it is checked at every
	// blocked-iteration boundary and between panel columns, so
	// cancellation is observed within one iteration and Reduce returns
	// ctx.Err() (context.Canceled / context.DeadlineExceeded). The
	// device allocations are freed and the BLAS pool is left idle, so
	// both stay reusable after a cancelled run.
	Ctx context.Context
	// NB is the block size (DefaultNB if zero).
	NB int
	// Device is the simulated accelerator to run on. Required unless
	// Devices is set.
	Device *gpu.Device
	// Devices, when non-empty, selects the multi-device path: the
	// trailing matrix is sharded block-column-wise across the pool
	// (internal/devpool), the panel products are broadcast, and results
	// are bit-identical at every pool size. Device and DisableOverlap
	// are ignored; BeforeIteration is not supported (the ft path's Hook
	// drives multi-device fault studies).
	Devices []*gpu.Device
	// DisableOverlap serializes the asynchronous device-to-host transfer
	// of the finished block with the trailing update instead of
	// overlapping them (ablation of the paper's optimization).
	DisableOverlap bool
	// DisableLookahead turns off the depth-1 lookahead schedule and
	// reverts to the fully serialized iteration (ablation). Under
	// lookahead — the default — iteration k's trailing update is split
	// into a priority part covering only panel k+1's columns and a
	// remainder part, and the host-side factorization of panel k+1 runs
	// concurrently with the remainder; results are bit-identical either
	// way.
	DisableLookahead bool
	// BeforeIteration, if set, runs before every blocked iteration with
	// access to the device-resident matrix and the host-side packed
	// result under assembly; fault campaigns use it to inject soft
	// errors at iteration boundaries (the paper's failure model and the
	// setting of Figure 2).
	BeforeIteration func(info IterInfo, dA *gpu.Matrix, host *matrix.Matrix)
	// Obs, if set, receives per-phase timers (panel, right_update,
	// left_update, d2h_overlap, ...), per-operation-family seconds, and
	// end-of-run lane gauges.
	Obs *obs.Registry
	// Trace, if set, scopes the run to a served request: every metric
	// series the device(s) emit gains a job=<id> label and the reduction
	// appears as a wall-clock span on the context's tracer.
	Trace *obs.TraceContext
}

// Result carries the factorization output and the simulated performance.
// It is the one Hessenberg result type: ft.Result embeds it and adds the
// resilience statistics, and core.Result embeds ft.Result.
type Result struct {
	N  int
	NB int
	// BlockedIters is the number of blocked (panel) iterations executed.
	BlockedIters int
	// Packed is the LAPACK-layout result: H on and above the first
	// subdiagonal, Householder vectors below it.
	Packed *matrix.Matrix
	// Tau holds the reflector scalar factors.
	Tau []float64
	// SimSeconds is the simulated wall-clock of the whole reduction.
	SimSeconds float64
	// ModelGFLOPS is 10/3·N³ / SimSeconds / 1e9.
	ModelGFLOPS float64
}

// H extracts the upper Hessenberg factor.
func (r *Result) H() *matrix.Matrix {
	return lapack.HessFromPacked(r.N, r.Packed.Data, r.Packed.Stride)
}

// Q forms the orthogonal factor explicitly.
func (r *Result) Q() *matrix.Matrix {
	return lapack.Dorghr(r.N, r.Packed.Data, r.Packed.Stride, r.Tau)
}

// Reduce runs the hybrid Hessenberg reduction of a (not modified).
func Reduce(a *matrix.Matrix, opt Options) (*Result, error) {
	n := a.Rows
	if n != a.Cols {
		return nil, errors.New("hybrid: matrix must be square")
	}
	if len(opt.Devices) > 0 {
		return reduceMulti(a, opt)
	}
	if opt.Device == nil {
		return nil, errors.New("hybrid: Options.Device is required")
	}
	nb := opt.NB
	if nb <= 0 {
		nb = DefaultNB
	}
	dev := opt.Device
	if opt.Obs != nil {
		dev.SetObs(opt.Obs)
	}
	dev.SetJob(opt.Trace.JobID())
	sp := opt.Trace.Span("hybrid.reduce", opt.Trace.ParentSpan())
	defer opt.Trace.EndSpan(sp)
	dev.SetContext(opt.Ctx)

	hostA := dev.Mode.HostCopy(a)
	tau := make([]float64, max(n-1, 1))
	res := &Result{N: n, NB: nb, Packed: hostA, Tau: tau}
	if n <= 1 {
		return res, nil
	}

	// Algorithm 2, line 1: A → d_A.
	dev.SetPhase("setup")
	dA := dev.Alloc(n, n)
	dev.H2D(dA, 0, 0, hostA)

	dT := dev.Alloc(nb, nb)
	dY := dev.Alloc(n, nb)
	dW := dev.Alloc(n, nb)
	dVcol := dev.Alloc(n, 1)
	dYcol := dev.Alloc(n, 1)
	defer func() {
		dev.Free(dA)
		dev.Free(dT)
		dev.Free(dY)
		dev.Free(dW)
		dev.Free(dVcol)
		dev.Free(dYcol)
	}()

	tHost := dev.Mode.HostMatrix(nb, nb)
	yHost := dev.Mode.HostMatrix(n, nb)

	nx := max(nb, 2)
	lookahead := !opt.DisableLookahead
	var prevLeft sim.Event
	// panelReady gates the next panel's device-to-host transfer: under
	// lookahead it is the priority left update (which finishes only the
	// next panel's columns), otherwise the full left update.
	var panelReady sim.Event
	p := 0
	iter := 0
	for ; n-1-p > nx; p += nb {
		if err := dev.CtxErr(); err != nil {
			return nil, err
		}
		ib := min(nb, n-1-p)
		k := p + 1
		// la: this panel's columns were finished early by the previous
		// iteration's priority update, so its factorization overlaps the
		// remainder update still streaming on the device — the panel time
		// leaves the critical path ("panel_hidden").
		la := lookahead && iter > 0

		if opt.BeforeIteration != nil {
			dev.DeviceSynchronize()
			opt.BeforeIteration(IterInfo{Iter: iter, Panel: p, NB: ib, N: n}, dA, hostA)
		}

		// Line 3: send the lower part of the panel to the host. It is
		// valid once the update that last wrote the panel columns finished:
		// the previous iteration's full left update, or — under lookahead —
		// just its priority part.
		if la {
			dev.SetPhase("panel_hidden")
		} else {
			dev.SetPhase("panel")
		}
		panelLower := hostA.View(k, p, n-k, ib)
		dev.Sync(dev.D2HAsync(panelLower, dA, k, p, panelReady))

		// Line 4: hybrid panel factorization (CPU + per-column device
		// GEMV against the trailing matrix).
		if err := PanelFactor(dev, hostA, yHost, tHost, tau, dA, dVcol, dYcol, n, p, k, ib, la); err != nil {
			return nil, err
		}

		// Upload V, Y and T; Y's top rows and line 5's panel-column part.
		UploadPanel(dev, hostA, yHost, tHost, dA, dY, dT, n, p, ib, prevLeft)
		ytopDone, aDone := UpdateTop(dev, dA, dY, dT, dW, n, p, ib)
		// Lines 6+9: the finished block travels home while the device
		// keeps updating G (after the updates under DisableOverlap).
		if !opt.DisableOverlap {
			SendFinished(dev, hostA, dA, p, ib, false, aDone)
		}

		// EI corner trick: V's stored diagonal corner must read as 1
		// for the V-bottom right updates.
		ei := dev.Mode.HostElem(hostA, p+ib, p+ib-1)
		e1 := dev.Set(dA, p+ib, p+ib-1, 1, ytopDone)
		ib2 := 0
		if lookahead && n-1-(p+nb) > nx {
			// Lookahead split: finish the next panel's ib2 columns first
			// (priority right update + priority DLARFB), so the next
			// iteration's panel transfer and host factorization can start
			// while the remainder of the trailing update streams behind
			// them. Splitting a GEMM/DLARFB by output columns is exact:
			// every output element sees the same inputs in the same
			// accumulation order, so the digests match the serialized
			// schedule bit for bit.
			ib2 = min(nb, n-1-(p+nb))
			eGp := dev.Gemm(blas.NoTrans, blas.Trans, n-k, ib2, ib, -1, dY, k, 0, dA, p+ib, p, 1, dA, k, p+ib, e1)
			dev.SetPhase("left_update")
			panelReady = dev.Larfb(n-k, ib2, ib, dA, k, p, dT, 0, 0, dA, k, p+ib, dW, eGp)
			dev.SetPhase("right_update")
		}
		// Right update to M's trailing columns (line 5), then to G's
		// columns past the priority part (line 7).
		eM := dev.Gemm(blas.NoTrans, blas.Trans, k, n-p-ib, ib, -1, dY, 0, 0, dA, p+ib, p, 1, dA, 0, p+ib, e1)
		eG := dev.Gemm(blas.NoTrans, blas.Trans, n-k, n-p-ib-ib2, ib, -1, dY, k, 0, dA, p+ib+ib2, p, 1, dA, k, p+ib+ib2, eM)
		eC := dev.Set(dA, p+ib, p+ib-1, ei, eG)
		// Line 8: DLARFB left update of the same columns.
		dev.SetPhase("left_update")
		prevLeft = dev.Larfb(n-k, n-p-ib-ib2, ib, dA, k, p, dT, 0, 0, dA, k, p+ib+ib2, dW, eC)
		if ib2 == 0 {
			panelReady = prevLeft
		}
		if opt.DisableOverlap {
			SendFinished(dev, hostA, dA, p, ib, true, aDone, prevLeft)
		}

		iter++
	}
	res.BlockedIters = iter

	if err := dev.CtxErr(); err != nil {
		return nil, err
	}
	Cleanup(dev, hostA, dA, tau, n, p, prevLeft)
	dev.DeviceSynchronize()
	dev.SetPhase("")
	dev.FinishRun()
	res.SetTiming(dev.Elapsed())
	return res, nil
}

// SetTiming records the simulated makespan and the modeled rate.
func (r *Result) SetTiming(elapsed float64) {
	r.SimSeconds = elapsed
	if elapsed > 0 {
		r.ModelGFLOPS = sim.HessenbergFlops(r.N) / elapsed / 1e9
	}
}

// UploadPanel sends the panel products to the device under the
// right_update phase: V with the factored panel (rows k..n-1 of the
// panel columns), Y's lower rows and T. The panel columns are disjoint
// from everything still in flight, but dY and dT are read by the
// previous iteration's remainder update, so under lookahead their
// uploads wait for it (prevLeft is already in the past on the
// serialized schedule).
func UploadPanel(dev *gpu.Device, hostA, y, t *matrix.Matrix, dA, dY, dT *gpu.Matrix, n, p, ib int, prevLeft sim.Event) {
	k := p + 1
	dev.SetPhase("right_update")
	dev.H2D(dA, k, p, hostA.View(k, p, n-k, ib))
	dev.Sync(dev.H2DAsync(dY, k, 0, y.View(k, 0, n-k, ib), prevLeft))
	dev.Sync(dev.H2DAsync(dT, 0, 0, t.View(0, 0, ib, ib), prevLeft))
}

// UpdateTop computes Y's top rows on the device,
// Y(0:k-1,:) = A(0:k-1, p+1:n-1)·V·T, and applies the panel-column part
// of the right update to M (Algorithm 2, line 5),
// A(0:k-1, p+1:p+ib-1) −= Y(0:k-1, 0:ib-2)·V1ᵀ, through the workspace
// dW, under the right_update phase. It returns the completion of Y's top
// rows, which the trailing right update reads, and of the top-row
// update, after which the panel columns are final.
func UpdateTop(dev *gpu.Device, dA, dY, dT, dW *gpu.Matrix, n, p, ib int) (ytop, top sim.Event) {
	k := p + 1
	dev.SetPhase("right_update")
	e := dev.CopyBlock(dY, 0, 0, dA, 0, p+1, k, ib)
	e = dev.Trmm(blas.Right, blas.Lower, blas.NoTrans, blas.Unit, k, ib, 1, dA, k, p, dY, 0, 0, e)
	if n > k+ib {
		e = dev.Gemm(blas.NoTrans, blas.NoTrans, k, ib, n-k-ib, 1, dA, 0, p+ib+1, dA, k+ib, p, 1, dY, 0, 0, e)
	}
	ytop = dev.Trmm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, k, ib, 1, dT, 0, 0, dY, 0, 0, e)
	top = ytop
	if ib > 1 {
		top = dev.CopyBlock(dW, 0, 0, dY, 0, 0, k, ib-1, ytop)
		top = dev.Trmm(blas.Right, blas.Lower, blas.Trans, blas.Unit, k, ib-1, 1, dA, k, p, dW, 0, 0, top)
		top = dev.SubBlock(dA, 0, p+1, dW, 0, 0, k, ib-1, top)
	}
	return ytop, top
}

// SendFinished transfers the finished leading block — rows 0..p of the
// panel columns, the last piece of H the host is missing — once deps
// complete, under the d2h_overlap phase. By default the copy stays in
// flight while the device updates G (Algorithm 2, lines 6+9); the
// DisableOverlap ablation issues it after the trailing update with wait
// set, and the host blocks on it.
func SendFinished(dev *gpu.Device, hostA *matrix.Matrix, dA *gpu.Matrix, p, ib int, wait bool, deps ...sim.Event) {
	prev := dev.SetPhase("d2h_overlap")
	e := dev.D2HAsync(hostA.View(0, p, p+1, ib), dA, 0, p, deps...)
	if wait {
		dev.Sync(e)
	}
	dev.SetPhase(prev)
}

// Cleanup brings the trailing columns p..n-1 home once last completes
// and finishes with the unblocked reduction on the host (DGEHD2), under
// the cleanup phase.
func Cleanup(dev *gpu.Device, hostA *matrix.Matrix, dA *gpu.Matrix, tau []float64, n, p int, last sim.Event) {
	dev.SetPhase("cleanup")
	if p < n {
		dev.Sync(dev.D2HAsync(hostA.View(0, p, n, n-p), dA, 0, p, last))
	}
	dev.HostOp(cleanupCost(dev.Params, n, p), func() {
		lapack.Dgehd2(n, p, hostA.Data, hostA.Stride, tau, make([]float64, n))
	})
}

// cleanupCost is the modeled CPU time of the trailing unblocked reduction
// starting at column p.
func cleanupCost(pp sim.Params, n, p int) float64 {
	cost := 0.0
	for c := p; c < n-1; c++ {
		m1 := n - 1 - c
		cost += 2 * pp.VecHost(m1)         // dlarfg
		cost += 2 * pp.GemvHost(n, m1)     // right dlarf (gemv + ger)
		cost += 2 * pp.GemvHost(m1, n-c-1) // left dlarf
	}
	return cost
}

// PanelFactor runs the hybrid DLAHR2 panel factorization for the panel
// starting at global column p (k = p+1 leading rows untouched), writing V
// and the factored columns into hostA, the reflector scalars into
// tau[p..p+ib-1], T into t, and Y's rows k..n-1 into y. The large
// matrix-vector product against the trailing matrix runs on the device.
//
// The device's attached context (Device.SetContext) is polled before
// each panel column; on cancellation PanelFactor abandons the
// half-factorized panel and returns the context error — the caller is
// expected to discard the whole computation.
//
// When la is set the factorization runs under the lookahead schedule:
// the previous iteration's remainder update is still streaming on the
// compute FIFO, so the per-column GEMVs issue on the device's lookahead
// stream instead, charged with the extra cost of the correction terms
// that reconcile the not-yet-applied remainder (on real hardware the
// lookahead GEMV folds Y·(Vᵀv) and V·(Sv) corrections per tile, the
// restructuring the online-ABFT GEMM literature uses). In the simulation
// kernels execute eagerly in program order, so the arithmetic — and
// therefore the result digest — is identical with and without la.
func PanelFactor(dev *gpu.Device, hostA, y, t *matrix.Matrix, tau []float64, dA *gpu.Matrix, dVcol, dYcol *gpu.Matrix, n, p, k, ib int, la bool) error {
	pp := dev.Params
	ldy := y.Stride
	ytmpM := dev.Mode.HostMatrix(n-k, 1)
	// The trailing GEMV y(k:n-1) = A(k:n-1, p+ib:n-1)·v as one segment.
	seg := []gpu.Seg{{A: p + ib, N: n - p - ib}}
	stream, extra := dev.Compute, 0.0
	if la {
		// Correction-term charge per lookahead GEMV: two skinny GEMVs
		// against V and Y (plus the left-update share), ≈ 3 device GEMVs
		// of shape (n-k)×ib, fused into the main GEMV's pass (extra
		// operand streaming, no extra launches).
		stream, extra = dev.Lookahead, pp.GemvDevice(n-k, 3*ib)-pp.KernelLaunchSec
	}
	var pending sim.Event
	issue := func(i, c int) {
		vtail := hostA.View(p+ib, c, n-p-ib, 1)
		up := dev.H2DAsync(dVcol, 0, 0, vtail)
		kg := dev.GemvSeg(stream, extra, n-k, 1, dA, k, dVcol, 0, 0, dYcol, 0, seg, up)
		pending = dev.D2HAsync(ytmpM, dYcol, 0, 0, kg)
	}
	collect := func(i, c int) {
		dev.Sync(pending)
		dev.HostOp(pp.VecHost(n-k), func() {
			blas.Daxpy(n-k, 1, ytmpM.Data, 1, y.Data[i*ldy+k:], 1)
		})
	}
	return panelFactorWith(DeviceLane(dev), pp, hostA, y, t, tau, n, p, k, ib, issue, collect)
}

// HostLane is where a reduction's serial CPU work is charged: the single
// device's host lane (legacy path) or a pool's main-host timeline
// (multi-device path). It is a concrete type rather than an interface so
// the per-operation HostOp closures passed through it stay on the stack.
type HostLane struct {
	dev  *gpu.Device
	pool *devpool.Pool
}

// DeviceLane charges host work to dev's host lane.
func DeviceLane(dev *gpu.Device) HostLane { return HostLane{dev: dev} }

// PoolLane charges host work to the pool's main-host timeline.
func PoolLane(pool *devpool.Pool) HostLane { return HostLane{pool: pool} }

// HostOp charges cost seconds of CPU work and, in Real mode, runs f.
func (h HostLane) HostOp(cost float64, f func()) {
	if h.pool != nil {
		h.pool.HostOp(cost, f)
		return
	}
	h.dev.HostOp(cost, f)
}

// CtxErr reports the attached cancellation context's error, if any.
func (h HostLane) CtxErr() error {
	if h.pool != nil {
		return h.pool.CtxErr()
	}
	return h.dev.CtxErr()
}

// SetPhase names the phase subsequent costs are attributed to (on every
// device of a pool), returning the previous phase.
func (h HostLane) SetPhase(name string) string {
	if h.pool != nil {
		return h.pool.SetPhase(name)
	}
	return h.dev.SetPhase(name)
}

// Issue hands the commands that follow to dev's driver
// (devpool.Pool.Issue); a single device takes them in program order.
func (h HostLane) Issue(dev *gpu.Device) {
	if h.pool != nil {
		h.pool.Issue(dev)
	}
}

// Wait blocks the lane's host until e completes.
func (h HostLane) Wait(e sim.Event) {
	if h.pool != nil {
		h.pool.Wait(e)
		return
	}
	h.dev.Sync(e)
}

// Mode reports the execution mode of the lane's device(s).
func (h HostLane) Mode() gpu.Mode {
	if h.pool != nil {
		return h.pool.Mode
	}
	return h.dev.Mode
}

// panelFactorWith is the DLAHR2 host math shared by the single- and
// multi-device paths. The per-column trailing-matrix GEMV
// y(k:n-1, i) += A(k:n-1, p+ib:n-1)·v runs on the device(s) in two
// halves: issueGemv starts it as soon as the reflector is final, and
// collectGemv waits and folds the partial(s) into y column i — the host
// column math that does not touch y_i (T's new column, the panel-part
// product) executes in between, hidden under the device round trip.
func panelFactorWith(dev HostLane, pp sim.Params, hostA, y, t *matrix.Matrix, tau []float64, n, p, k, ib int, issueGemv, collectGemv func(i, c int)) error {
	a := hostA.Data
	lda := hostA.Stride
	ldy := y.Stride
	ldt := t.Stride
	var ei float64
	var w []float64
	if dev.Mode() == gpu.Real {
		w = make([]float64, ib)
	}

	for i := 0; i < ib; i++ {
		if err := dev.CtxErr(); err != nil {
			return err
		}
		c := p + i
		if i > 0 {
			// Update column i with the previous reflectors (Y part):
			// A(k:n-1, c) −= Y(k:n-1, 0:i-1)·A(k+i-1, p:p+i-1)ᵀ.
			dev.HostOp(pp.GemvHost(n-k, i), func() {
				blas.Dgemv(blas.NoTrans, n-k, i, -1, y.Data[k:], ldy, a[p*lda+k+i-1:], lda, 1, a[c*lda+k:], 1)
			})
			// Apply (I − V·Tᵀ·Vᵀ) to the column.
			dev.HostOp(pp.VecHost(i)+pp.GemvHost(i, i)/2, func() {
				blas.Dcopy(i, a[c*lda+k:], 1, w, 1)
				blas.Dtrmv(blas.Lower, blas.Trans, blas.Unit, i, a[p*lda+k:], lda, w, 1)
			})
			dev.HostOp(pp.GemvHost(n-k-i, i), func() {
				blas.Dgemv(blas.Trans, n-k-i, i, 1, a[p*lda+k+i:], lda, a[c*lda+k+i:], 1, 1, w, 1)
			})
			dev.HostOp(pp.GemvHost(i, i)/2, func() {
				blas.Dtrmv(blas.Upper, blas.Trans, blas.NonUnit, i, t.Data, ldt, w, 1)
			})
			dev.HostOp(pp.GemvHost(n-k-i, i), func() {
				blas.Dgemv(blas.NoTrans, n-k-i, i, -1, a[p*lda+k+i:], lda, w, 1, 1, a[c*lda+k+i:], 1)
			})
			dev.HostOp(pp.GemvHost(i, i)/2+pp.VecHost(i), func() {
				blas.Dtrmv(blas.Lower, blas.NoTrans, blas.Unit, i, a[p*lda+k:], lda, w, 1)
				blas.Daxpy(i, -1, w, 1, a[c*lda+k:], 1)
				// Restore the subdiagonal element of the previous column.
				a[(c-1)*lda+k+i-1] = ei
			})
		}
		// Generate the reflector annihilating A(k+i+1:n-1, c).
		dev.HostOp(2*pp.VecHost(n-k-i), func() {
			beta, tu := lapack.Dlarfg(n-k-i, a[c*lda+k+i], a[c*lda+min(k+i+1, n-1):], 1)
			tau[c] = tu
			ei = beta
			a[c*lda+k+i] = 1
		})
		// Start the device share of Y(k:n-1, i) = A(k:n-1, c+1:n-1)·v
		// right away (the per-column GPU GEMV of magma_dlahr2; one
		// partial per slab on the multi-device path) ...
		issueGemv(i, c)
		// ... and, while it is in flight, multiply the remaining panel
		// columns on the host ...
		if ib-1-i > 0 {
			dev.HostOp(pp.GemvHost(n-k, ib-1-i), func() {
				blas.Dgemv(blas.NoTrans, n-k, ib-1-i, 1, a[(c+1)*lda+k:], lda, a[c*lda+k+i:], 1, 0, y.Data[i*ldy+k:], 1)
			})
		} else {
			dev.HostOp(pp.VecHost(n-k), func() {
				col := y.Data[i*ldy+k : i*ldy+k+(n-k)]
				for r := range col {
					col[r] = 0
				}
			})
		}
		// ... and T(0:i-1, i) = V2ᵀ·v, which touches neither y_i nor the
		// device partials.
		dev.HostOp(pp.GemvHost(n-k-i, i), func() {
			blas.Dgemv(blas.Trans, n-k-i, i, 1, a[p*lda+k+i:], lda, a[c*lda+k+i:], 1, 0, t.Data[i*ldt:], 1)
		})
		// Fold the device partial(s) into y_i, then finish the column:
		// the Y cross-term correction needs the complete y_i.
		collectGemv(i, c)
		dev.HostOp(pp.GemvHost(n-k, i), func() {
			blas.Dgemv(blas.NoTrans, n-k, i, -1, y.Data[k:], ldy, t.Data[i*ldt:], 1, 1, y.Data[i*ldy+k:], 1)
		})
		dev.HostOp(pp.VecHost(n-k), func() {
			blas.Dscal(n-k, tau[c], y.Data[i*ldy+k:], 1)
		})
		// Finish column i of T.
		dev.HostOp(pp.VecHost(i)+pp.GemvHost(i, i)/2, func() {
			blas.Dscal(i, -tau[c], t.Data[i*ldt:], 1)
			blas.Dtrmv(blas.Upper, blas.NoTrans, blas.NonUnit, i, t.Data, ldt, t.Data[i*ldt:], 1)
			t.Data[i*ldt+i] = tau[c]
		})
	}
	dev.HostOp(pp.VecHost(1), func() {
		a[(p+ib-1)*lda+k+ib-1] = ei
	})
	return nil
}
