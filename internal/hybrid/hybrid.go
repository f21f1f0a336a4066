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
// Each schedule family has one blocked loop: DeviceRun.Run on one
// device, PoolRun.Run on a devpool pool (multi.go) and ReduceSym for
// DSYTRD (sytrd.go). A fault-tolerant reduction (internal/ft) is the
// same loop under a guard — Guard, PoolGuard, SymGuard — whose checksum
// lines join it at fixed points, never a second copy of the schedule.
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
	nb := opt.NB
	if nb <= 0 {
		nb = DefaultNB
	}
	if len(opt.Devices) > 0 {
		return reduceMulti(a, opt, nb)
	}
	if opt.Device == nil {
		return nil, errors.New("hybrid: Options.Device is required")
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
	r := DeviceRun{
		Dev: dev, HostA: hostA, Tau: tau, NB: nb,
		Lookahead:       !opt.DisableLookahead,
		DisableOverlap:  opt.DisableOverlap,
		BeforeIteration: opt.BeforeIteration,
	}
	dev.Sync(r.Setup(0))
	defer r.Free()
	iters, err := r.Run()
	if err != nil {
		return nil, err
	}
	res.BlockedIters = iters
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

// Guard is a protection layer over the single-device schedule: the
// fault-tolerant reduction's Algorithm 3 is DeviceRun.Run with a guard
// whose checksum lines join the unchanged data path at these points
// (DESIGN §3). The data-path ops after a hook wait on the event it
// returns, and a hook restores the phase and stream it changes. A
// non-nil error aborts the run and is returned from Run as is.
type Guard interface {
	// Boundary runs at the start of blocked iteration iter (panel p,
	// width ib).
	Boundary(iter, p, ib int) error
	// Offload runs while panel p's rows k..n-1 travel home, a transfer
	// that starts once ready completes, with the stream the panel's
	// GEMVs leave free selected (Device.SetStream); on a redo it
	// replaces that transfer and restores the panel from the guard's
	// checkpoint. It returns the completion of its own reads of the
	// panel's device columns: the upload of the factored panel waits on
	// it.
	Offload(iter, p, ib int, redo bool, ready sim.Event) sim.Event
	// AfterTop runs once the top-row update is issued, after which
	// (top) the panel columns are final; the right update of G waits on
	// its event.
	AfterTop(p, ib int, top sim.Event) sim.Event
	// AfterRight runs once the right update is issued; the left update
	// waits on its event.
	AfterRight(p, ib int, right sim.Event) sim.Event
	// AfterLeft runs after each part of the left update, over trailing
	// columns [lo, hi); the update's readers wait on its event.
	AfterLeft(p, ib, lo, hi int, left sim.Event) sim.Event
	// AfterIteration runs once the iteration is issued; redo asks for
	// it to run again from the panel offload.
	AfterIteration(iter, p, ib int, left sim.Event) (redo bool, err error)
	// Finish runs after the last of iters blocked iterations, before
	// the cleanup at column p.
	Finish(iters, p int, last sim.Event) error
	// BeforeCleanup runs once the transfer home of the trailing columns
	// p..n-1 is issued, before the host waits for it and reduces them
	// with the unblocked DGEHD2; neither touches the columns left of p,
	// the only ones it may read or repair.
	BeforeCleanup(p int) error
}

// DeviceRun is one reduction on the single-device schedule: Algorithm
// 2, or Algorithm 3 under a Guard.
type DeviceRun struct {
	Dev *gpu.Device
	// A is the device matrix, (n+pad)×(n+pad) (Setup); the rows and
	// columns past n are the guard's. The right update of G covers all
	// of A's rows below k, the left update all its columns right of the
	// panel. Y and W are (n+pad)×nb, T nb×nb.
	A, Y, T, W *gpu.Matrix
	// S, if the caller sets it ((n+pad)×nb), keeps the left update's
	// intermediate Cᵀ·V·T, a row per trailing column, for a reversal.
	S *gpu.Matrix
	// HostA is the packed result under assembly, Tau the reflector scalars.
	HostA *matrix.Matrix
	Tau   []float64
	NB    int
	// Lookahead, DisableOverlap and BeforeIteration are the Options'.
	Lookahead, DisableOverlap bool
	BeforeIteration           func(info IterInfo, dA *gpu.Matrix, host *matrix.Matrix)
	// Guard, if set, is the protection layer (nil for the baseline).
	Guard Guard

	// vcol and ycol carry the panel GEMV; hostY and hostT receive the
	// panel products.
	vcol, ycol   *gpu.Matrix
	hostY, hostT *matrix.Matrix
	// prevLeft completes the latest left update, panelReady its part
	// that finishes the next panel's columns.
	prevLeft, panelReady sim.Event
}

// Setup allocates the device matrix with pad guard rows and columns,
// the workspaces and the host panel products, and issues the upload of
// HostA, in the setup phase. It returns the upload's completion, which
// the caller syncs on before Run; host work in between hides under the
// transfer.
func (r *DeviceRun) Setup(pad int) sim.Event {
	dev := r.Dev
	n, nb := r.HostA.Rows, r.NB
	dev.SetPhase("setup")
	r.A = dev.Alloc(n+pad, n+pad)
	up := dev.H2DAsync(r.A, 0, 0, r.HostA)
	r.T, r.Y, r.W = dev.Alloc(nb, nb), dev.Alloc(n+pad, nb), dev.Alloc(n+pad, nb)
	r.vcol, r.ycol = dev.Alloc(n, 1), dev.Alloc(n, 1)
	r.hostT, r.hostY = dev.Mode.HostMatrix(nb, nb), dev.Mode.HostMatrix(n, nb)
	return up
}

// Free releases Setup's device memory.
func (r *DeviceRun) Free() {
	for _, m := range []*gpu.Matrix{r.A, r.T, r.Y, r.W, r.vcol, r.ycol} {
		r.Dev.Free(m)
	}
}

// Run executes the blocked iterations and finishes on the host,
// returning the number of blocked iterations. The device's context is
// checked at every iteration boundary.
func (r *DeviceRun) Run() (int, error) {
	dev, g := r.Dev, r.Guard
	n, nb := r.HostA.Rows, r.NB
	nx := max(nb, 2)
	p, iter := 0, 0
	for ; n-1-p > nx; p += nb {
		if err := dev.CtxErr(); err != nil {
			return iter, err
		}
		ib := min(nb, n-1-p)
		if r.BeforeIteration != nil {
			dev.DeviceSynchronize()
			r.BeforeIteration(IterInfo{Iter: iter, Panel: p, NB: ib, N: n}, r.A, r.HostA)
		}
		if g != nil {
			if err := g.Boundary(iter, p, ib); err != nil {
				return iter, err
			}
		}
		for redo := false; ; redo = true {
			again, err := r.iteration(iter, p, ib, redo)
			if err != nil {
				return iter, err
			}
			if !again {
				break
			}
		}
		iter++
	}

	if err := dev.CtxErr(); err != nil {
		return iter, err
	}
	if g != nil {
		if err := g.Finish(iter, p, r.prevLeft); err != nil {
			return iter, err
		}
	}
	// The trailing columns home, then the unblocked DGEHD2 on the host.
	// The guard's last hook runs while they travel.
	dev.SetPhase("cleanup")
	home := dev.D2HAsync(r.HostA.View(0, p, n, n-p), r.A, 0, p, r.prevLeft)
	if g != nil {
		if err := g.BeforeCleanup(p); err != nil {
			return iter, err
		}
	}
	dev.Sync(home)
	dev.HostOp(cleanupCost(dev.Params, n, p), func() {
		lapack.Dgehd2(n, p, r.HostA.Data, r.HostA.Stride, r.Tau, make([]float64, n))
	})
	dev.DeviceSynchronize()
	dev.SetPhase("")
	dev.FinishRun()
	return iter, nil
}

// iteration issues blocked iteration iter for the panel at p (Algorithm
// 2, lines 3-9), then hands it to the guard, which may ask for a redo:
// a re-execution after recovery.
func (r *DeviceRun) iteration(iter, p, ib int, redo bool) (again bool, err error) {
	dev, g := r.Dev, r.Guard
	hostA, dA := r.HostA, r.A
	n, k := hostA.Rows, p+1

	// Line 3: send the lower part of the panel to the host once the
	// update that last wrote its columns finished. Under lookahead that
	// was the previous iteration's priority part, so the offload and the
	// factorization overlap the remainder still streaming on the device
	// ("panel_hidden"). A redo follows the reversal of the whole
	// previous attempt, so it never hides.
	la := r.Lookahead && iter > 0 && !redo
	phase := "panel"
	if la {
		phase = "panel_hidden"
	}
	dev.SetPhase(phase)
	var ck sim.Event
	if redo {
		ck = g.Offload(iter, p, ib, true, r.panelReady)
	} else {
		e := dev.D2HAsync(hostA.View(k, p, n-k, ib), dA, k, p, r.panelReady)
		if g != nil {
			// The guard's reads take the stream the panel's GEMVs
			// leave free (panelFactor issues them on Lookahead under la).
			free := dev.Lookahead
			if la {
				free = dev.Compute
			}
			prev := dev.SetStream(free)
			ck = g.Offload(iter, p, ib, false, r.panelReady)
			dev.SetStream(prev)
		}
		dev.Sync(e)
	}
	dev.SetPhase(phase)

	// Line 4: hybrid panel factorization (CPU + per-column device GEMV
	// against the trailing matrix).
	if err := panelFactor(dev, hostA, r.hostY, r.hostT, r.Tau, dA, r.vcol, r.ycol, n, p, k, ib, la); err != nil {
		return false, err
	}

	// Upload V with the factored panel once the guard's reads of the
	// panel are done, Y's lower rows and T. The previous remainder
	// update reads dY and dT, so under lookahead their uploads wait for
	// it.
	dev.SetPhase("right_update")
	dev.Sync(dev.H2DAsync(dA, k, p, hostA.View(k, p, n-k, ib), ck))
	dev.Sync(dev.H2DAsync(r.Y, k, 0, r.hostY.View(k, 0, n-k, ib), r.prevLeft))
	dev.Sync(dev.H2DAsync(r.T, 0, 0, r.hostT.View(0, 0, ib, ib), r.prevLeft))
	ytop, aDone := r.updateTop(p, ib)
	var after sim.Event
	if g != nil {
		after = g.AfterTop(p, ib, aDone)
	}
	// Lines 6+9: the finished block — rows 0..p of the panel columns,
	// the last piece of H the host is missing — travels home while the
	// device keeps updating G; under DisableOverlap after the updates,
	// with the host waiting for it.
	sendFinished := func(deps ...sim.Event) sim.Event {
		defer dev.SetPhase(dev.SetPhase("d2h_overlap"))
		return dev.D2HAsync(hostA.View(0, p, p+1, ib), dA, 0, p, deps...)
	}
	if !r.DisableOverlap {
		sendFinished(aDone)
	}

	// Lines 5 and 7: the right update of M's and G's trailing columns,
	// with the EI corner trick (V's stored diagonal corner must read as
	// 1 for the V-bottom products).
	ei := dev.Mode.HostElem(hostA, p+ib, p+ib-1)
	e1 := dev.Set(dA, p+ib, p+ib-1, 1, ytop)
	ib2 := 0
	if r.Lookahead && n-1-(p+ib) > max(r.NB, 2) {
		// Lookahead split: G's rows of the next panel's ib2 columns
		// first — every row the next offload reads — and their DLARFB,
		// so the next panel's transfer and host factorization start
		// while the remainder, M's rows included, streams behind them.
		// Splitting a GEMM/DLARFB by output columns is exact: every
		// output element sees the same inputs in the same order, so the
		// digests match the serialized schedule bit for bit.
		ib2 = min(ib, n-1-(p+ib))
		eGp := r.RightUpdate(p, ib, ib2, 0, ib2, -1, e1, after)
		dev.SetPhase("left_update")
		r.panelReady = r.leftUpdate(p, ib, 0, ib2, eGp)
		dev.SetPhase("right_update")
	}
	eG := r.RightUpdate(p, ib, 0, ib2, n-p-ib, -1, e1, after)
	if g != nil {
		eG = g.AfterRight(p, ib, eG)
	}
	eC := dev.Set(dA, p+ib, p+ib-1, ei, eG)
	// Line 8: DLARFB left update of the same columns.
	dev.SetPhase("left_update")
	r.prevLeft = r.leftUpdate(p, ib, ib2, dA.Cols-p-ib, eC)
	if ib2 == 0 {
		r.panelReady = r.prevLeft
	}
	if r.DisableOverlap {
		dev.Sync(sendFinished(aDone, r.prevLeft))
	}
	if g == nil {
		return false, nil
	}
	return g.AfterIteration(iter, p, ib, r.prevLeft)
}

// RightUpdate applies A(:, c) += sign·Y·V2ᵀ(:, c) to trailing columns c
// (global column p+ib+c) of the panel at p (Algorithm 2, lines 5 and
// 7): rows 0..k-1 (M) over columns [mlo, hi) once dep completes, then
// every row of A below k (G, a guard's rows included) over [lo, hi)
// once also gdep does. sign −1 is the update; +1 reverses it. The EI
// corner must read as 1.
func (r *DeviceRun) RightUpdate(p, ib, mlo, lo, hi int, sign float64, dep, gdep sim.Event) sim.Event {
	dev, dA, dY := r.Dev, r.A, r.Y
	k := p + 1
	if mlo < hi {
		dep = dev.Gemm(blas.NoTrans, blas.Trans, k, hi-mlo, ib, sign, dY, 0, 0, dA, p+ib+mlo, p, 1, dA, 0, p+ib+mlo, dep)
	}
	return dev.Gemm(blas.NoTrans, blas.Trans, dA.Rows-k, hi-lo, ib, sign, dY, k, 0, dA, p+ib+lo, p, 1, dA, k, p+ib+lo, dep, gdep)
}

// leftUpdate applies the DLARFB left update A := (I − V·T·Vᵀ)ᵀ·A to
// rows k..n-1 of trailing columns [lo, hi) once dep completes. Its
// intermediate Cᵀ·V·T is formed into W, or into S's rows [lo, hi) when
// S is set, and applied through W so it survives: S's row c always
// holds column c's intermediate however the update was split.
func (r *DeviceRun) leftUpdate(p, ib, lo, hi int, dep sim.Event) sim.Event {
	dev, dA := r.Dev, r.A
	m, k := r.HostA.Rows-p-1, p+1
	s, si, w2 := r.W, 0, (*gpu.Matrix)(nil)
	if r.S != nil {
		s, si, w2 = r.S, lo, r.W
	}
	e := dev.LarfbForm(m, hi-lo, ib, dA, k, p, r.T, 0, 0, dA, k, p+ib+lo, s, si, dep)
	e = dev.LarfbApply(-1, m, hi-lo, ib, dA, k, p, dA, k, p+ib+lo, s, si, w2, e)
	if r.Guard != nil {
		e = r.Guard.AfterLeft(p, ib, lo, hi, e)
	}
	return e
}

// updateTop computes Y's top rows on the device,
// Y(0:k-1,:) = A(0:k-1, p+1:n-1)·V·T, and applies the panel-column part
// of the right update to M (Algorithm 2, line 5),
// A(0:k-1, p+1:p+ib-1) −= Y(0:k-1, 0:ib-2)·V1ᵀ, through the workspace
// W. It returns the completion of Y's top
// rows, which the trailing right update reads, and of the top-row
// update, after which the panel columns are final.
func (r *DeviceRun) updateTop(p, ib int) (ytop, top sim.Event) {
	dev, dA, dY := r.Dev, r.A, r.Y
	n, k := r.HostA.Rows, p+1
	e := dev.CopyBlock(dY, 0, 0, dA, 0, p+1, k, ib)
	e = dev.Trmm(blas.Right, blas.Lower, blas.NoTrans, blas.Unit, k, ib, 1, dA, k, p, dY, 0, 0, e)
	if n > k+ib {
		e = dev.Gemm(blas.NoTrans, blas.NoTrans, k, ib, n-k-ib, 1, dA, 0, p+ib+1, dA, k+ib, p, 1, dY, 0, 0, e)
	}
	ytop = dev.Trmm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, k, ib, 1, r.T, 0, 0, dY, 0, 0, e)
	top = ytop
	if ib > 1 {
		top = dev.CopyBlock(r.W, 0, 0, dY, 0, 0, k, ib-1, ytop)
		top = dev.Trmm(blas.Right, blas.Lower, blas.Trans, blas.Unit, k, ib-1, 1, dA, k, p, r.W, 0, 0, top)
		top = dev.SubBlock(dA, 0, p+1, r.W, 0, 0, k, ib-1, top)
	}
	return ytop, top
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

// panelFactor runs the hybrid DLAHR2 panel factorization for the panel
// starting at global column p (k = p+1 leading rows untouched), writing V
// and the factored columns into hostA, the reflector scalars into
// tau[p..p+ib-1], T into t, and Y's rows k..n-1 into y. The large
// matrix-vector product against the trailing matrix runs on the device.
//
// The device's attached context (Device.SetContext) is polled before
// each panel column; on cancellation panelFactor abandons the
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
func panelFactor(dev *gpu.Device, hostA, y, t *matrix.Matrix, tau []float64, dA *gpu.Matrix, dVcol, dYcol *gpu.Matrix, n, p, k, ib int, la bool) error {
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

// Elapsed is the lane's simulated clock: its device's, or its pool's.
func (h HostLane) Elapsed() float64 {
	if h.pool != nil {
		return h.pool.Elapsed()
	}
	return h.dev.Elapsed()
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
