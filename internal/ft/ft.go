// Package ft implements the paper's contribution: the soft-error-resilient
// hybrid Hessenberg reduction (Algorithm 3, FT_DGEHRD).
//
// The input matrix on the device is encoded with a checksum column
// (A·e, appended as column n) and a checksum row (eᵀ·A, appended as row n).
// Every iteration maintains both checksums *through* the two-sided updates:
//
//   - the right update is applied to the checksum column by extending Vᵀ
//     with its column-sum vector (Vᵀe), and to the checksum row by treating
//     it as an extra matrix row updated with Yce = eᵀY = (eᵀA)·V·T
//     (computed from the maintained checksum row itself, the paper's
//     line 6);
//   - the left update is applied to the checksum column by including it as
//     an extra matrix column, and to the checksum row with the extended
//     reflector Vce = [V; eᵀV] (the paper's line 11). The intermediate
//     S = (CᵀV)·T is kept in device memory — the "panel worth of work
//     space" of the paper's storage analysis — which makes the reverse
//     computation a sign flip of the same GEMMs.
//
// At the end of every iteration the algorithm compares the total of the
// checksum column against the total of the checksum row (|Sre−Sce| > τ).
// On detection it reverses the left and right updates with the retained
// intermediates, restores the panel from the diskless checkpoint, locates
// the error(s) by comparing freshly computed checksums against the
// maintained ones, corrects them, and re-executes the iteration.
//
// The Householder vectors accumulating on the host (the Q matrix) are
// protected separately with host-side row/column checksums generated on
// the otherwise idle CPU and verified once after the last iteration
// (the paper's Section IV-E/F).
//
// None of this is a schedule of its own: the single-device reduction is
// hybrid.DeviceRun with this package's reducer as its hybrid.Guard, the
// pool and symmetric reductions are guards on hybrid's other two loops,
// and Result embeds hybrid.Result, so the factorization, H(), Q() and
// the modeled time have one definition for both algorithms.
package ft

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/blas"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// macheps is the double-precision unit roundoff.
const macheps = 2.220446049250313e-16

// defaultThresholdFactor scales the default detection threshold
// τ = 200·ε·N·‖A‖₁ (Options.ThresholdFactor; the symmetric path's τ).
const defaultThresholdFactor = 200

// ErrUncorrectable reports an error pattern the checksums cannot resolve
// (e.g. positions forming a rectangle, the case the paper excludes).
var ErrUncorrectable = errors.New("ft: detected errors are not correctable")

// ErrDetectionStorm reports that detection kept firing after the maximum
// number of recovery attempts for one iteration.
var ErrDetectionStorm = errors.New("ft: recovery retries exhausted")

// maxRecoveries bounds the recovery attempts per iteration (per slab on
// the multi-device path) before the run fails with ErrDetectionStorm.
const maxRecoveries = 3

// errPostProcessDetected ends an attempt of the post-processing
// comparator when its end-of-run check fires; Reduce re-executes.
var errPostProcessDetected = errors.New("ft: post-processing detection")

// Target identifies which memory a fault was injected into.
type Target int

const (
	// TargetH is the device-resident data matrix (trailing matrix / H).
	TargetH Target = iota
	// TargetQ is the host-resident Householder-vector storage.
	TargetQ
)

// Injection describes one injected fault (used by hooks and reports).
type Injection struct {
	Row, Col int
	Delta    float64
	Target   Target
	Iter     int
}

// IterCtx gives an injection hook access to the live state at an
// iteration boundary. On the multi-device path Dev and DA are nil — the
// trailing matrix lives in per-device slabs — so hooks should corrupt
// device memory through PokeH/FlipBitH, which route a global coordinate
// to the owning slab on every path.
type IterCtx struct {
	Dev *gpu.Device
	// DA is the extended (n+1)×(n+1) device matrix (data + checksums).
	// Nil on the multi-device path.
	DA *gpu.Matrix
	// Host is the packed host matrix accumulating V and H.
	Host *matrix.Matrix
	// Iter, Panel, NB, N describe the upcoming iteration.
	Iter, Panel, NB, N int
	// lost is the single-device reducer's device-loss flag (KillDevice).
	lost *bool
	// multi backs the accessor methods on the multi-device path.
	multi *multiReducer
}

// Mode reports the execution mode of the device(s) backing the run.
func (c *IterCtx) Mode() gpu.Mode {
	if c.multi != nil {
		return c.multi.pool.Mode
	}
	return c.Dev.Mode
}

// SimTime returns the current simulated time (for stamping events).
func (c *IterCtx) SimTime() float64 {
	if c.multi != nil {
		return c.multi.pool.Elapsed()
	}
	return c.Dev.Elapsed()
}

// PokeH adds delta to the device-resident trailing-matrix element at
// global (row, col), routing to the owning slab on the multi-device
// path. No-op in cost-only mode.
func (c *IterCtx) PokeH(row, col int, delta float64) {
	if c.multi != nil {
		c.multi.pokeH(row, col, delta)
		return
	}
	c.Dev.Poke(c.DA, row, col, delta)
}

// FlipBitH flips one bit of the device-resident element at global
// (row, col) and returns the applied delta (new − old); 0 in cost-only
// mode, where device data does not exist.
func (c *IterCtx) FlipBitH(row, col int, bit uint) float64 {
	if c.multi != nil {
		return c.multi.flipBitH(row, col, bit)
	}
	old := c.Dev.FlipBit(c.DA, row, col, bit)
	if c.Dev.Mode == gpu.Real {
		return c.DA.At(row, col) - old
	}
	return 0
}

// KillDevice arms a fail-stop device loss for the upcoming iteration:
// pool device d dies permanently at the named program point ("boundary",
// "panel", "update", or "recovery" — see fault.KillPoint). On the
// multi-device path the loss ends the attempt at that point and the
// reduction restarts from its input on the surviving devices
// (failstop.go). On the single-device path a lost device is always
// fatal. Out-of-range device indices are ignored.
func (c *IterCtx) KillDevice(d int, point string) {
	if c.multi != nil {
		c.multi.fsArm(d, point)
		return
	}
	if c.lost != nil {
		*c.lost = true
	}
}

// Hook lets a fault campaign inject errors at iteration boundaries, the
// paper's failure model ("the error is injected when iteration i has
// finished and iteration i+1 has not yet started").
type Hook interface {
	// BeforeIteration may inject faults into ctx.DA (device) or ctx.Host.
	BeforeIteration(ctx *IterCtx)
	// ConsumePendingH returns and clears the count of H-target injections
	// since the last call. In cost-only mode this drives the detection
	// branch (the data does not exist to be compared); in real mode the
	// data-driven detector is authoritative and this is used only to keep
	// the hook's state consistent.
	ConsumePendingH() int
}

// Options configures the fault-tolerant reduction.
type Options struct {
	// Ctx, when non-nil, cancels the reduction: it is checked at every
	// blocked-iteration boundary (including re-execution attempts) and
	// between panel columns, so cancellation is observed within one
	// iteration and Reduce returns ctx.Err(). Device allocations are
	// freed and the BLAS pool left idle, so both stay reusable.
	Ctx context.Context
	// NB is the block size (hybrid.DefaultNB if zero).
	NB int
	// Device is the simulated accelerator. Required unless Devices is
	// set.
	Device *gpu.Device
	// Devices, when non-empty, selects the multi-device path: the
	// trailing matrix is sharded block-column wise across the pool
	// (internal/devpool) with a checksum halo per slab, so detection,
	// location, and correction run on the owning device and a faulty
	// slab recovers without touching its neighbors. Boundary checks
	// compare fresh per-slab data totals against the maintained halos
	// *before* the iteration's updates consume the data, so a corrupted
	// slab is corrected in place — the path takes no panel checkpoints
	// and never re-executes (Checkpoints and Reexecutions stay zero),
	// and every check sweeps whole slabs, finished columns included, so
	// FinalHCheck is implied. Device and DisableOverlap are ignored. For
	// a fixed input, results are bit-identical at every device count.
	Devices []*gpu.Device
	// ThresholdFactor scales the detection threshold
	// τ = ThresholdFactor·ε·N·‖A‖₁ (paper: "2 to 3 orders of magnitude
	// above machine epsilon"). Default 200.
	ThresholdFactor float64
	// DisableOverlap serializes the finished-block transfer with the
	// trailing update (ablation).
	DisableOverlap bool
	// DisableLookahead turns off the depth-1 lookahead schedule and
	// reverts to the fully serialized iteration (ablation). Under
	// lookahead — the default — each trailing update (and the Sre/Sce
	// checksum-maintenance algebra riding on it) is split into a priority
	// part covering only the next panel's columns and a remainder part,
	// so the next panel's offload and host factorization overlap the
	// remainder. Detection stays at every iteration boundary and the
	// results are bit-identical either way.
	DisableLookahead bool
	// DisableQProtection turns off the host-side Q checksums (ablation).
	DisableQProtection bool
	// FinalHCheck adds a whole-matrix fresh-vs-maintained checksum sweep
	// after the last blocked iteration, catching errors that struck
	// already-finished H data (an extension beyond the paper).
	FinalHCheck bool
	// PostProcess switches to the post-processing detection scheme of the
	// prior work the paper compares against (Du et al.): checksums are
	// still maintained, but the Sre/Sce comparison runs only once, after
	// the last iteration. By then the error has propagated through every
	// subsequent update, so the only recovery is re-executing the whole
	// factorization, on the same device. Implemented as a comparator for
	// the ablation studies, on the single-device schedule only: Reduce
	// rejects it together with Devices.
	PostProcess bool
	// Hook receives iteration-boundary callbacks for fault injection.
	Hook Hook
	// Obs, if set, receives FT counters (ft_detections_total, ...),
	// per-phase timers including the protection steps of the paper's
	// Table II, and end-of-run lane gauges.
	Obs *obs.Registry
	// Journal, if set, receives the typed FT event records (checksum
	// checks, detections, corrections, checkpoints, re-executions, ...)
	// stamped with the simulated time.
	Journal *obs.Journal
	// Trace, if set, scopes the run to a served request: every metric
	// series (FT counters, device phase timers, operation costs) gains a
	// job=<id> label, and the run's coarse stages appear as wall-clock
	// spans on the context's tracer, parented under Trace.Parent.
	Trace *obs.TraceContext
	// Substrate selects the BLAS fault-tolerance substrate. "" or "swept"
	// (the default) relies solely on the iteration-boundary checksum
	// sweeps; "fused" additionally switches the device kernels to the
	// fused-ABFT routines (blas.DgemmFT verifies column/row checksums in
	// the macro-kernel epilogue of every call, DMR shadows Dgemv/Dger),
	// charging their modeled overhead and reporting per-call checks and
	// detections in the Result. On the multi-device path the fused
	// substrate also replaces the panel slab's full end-of-iteration halo
	// re-encode with an incremental refresh of only the columns the
	// iteration changed — the frozen-column prefix is carried forward —
	// shrinking the checksum_maintenance phase. H and tau are
	// bit-identical across substrates.
	Substrate string

	// startAt is the modeled instant a multi-device run starts at: a
	// restart after a device loss starts its pool at the loss.
	startAt float64
	// tally, if set, is the tally a rerun keeps counting into.
	tally *Tally
}

// Substrate values for Options.Substrate.
const (
	// SubstrateSwept is the default: checksum maintenance and detection
	// run as separate sweeps at iteration boundaries.
	SubstrateSwept = "swept"
	// SubstrateFused turns on the fused-ABFT BLAS substrate: kernels
	// verify their own output per call, and the multi-device panel-slab
	// halo is refreshed incrementally instead of re-encoded from scratch.
	SubstrateFused = "fused"
)

// substrateFused resolves Options.Substrate, rejecting unknown values.
func substrateFused(opt Options) (bool, error) {
	switch opt.Substrate {
	case "", SubstrateSwept:
		return false, nil
	case SubstrateFused:
		return true, nil
	}
	return false, fmt.Errorf("ft: unknown Substrate %q (want %q or %q)", opt.Substrate, SubstrateSwept, SubstrateFused)
}

// Result extends the hybrid result with the run's resilience tally.
// BlockedIters excludes re-executions.
type Result struct {
	hybrid.Result
	Tally
}

// reducer is the single-device fault-tolerant reduction: the run shell
// plus the hybrid.Guard that protects the single-device schedule — the
// guard's device state, the diskless panel checkpoint and the checksum
// kernels of Algorithm 3.
type reducer struct {
	run
	dev *gpu.Device
	// d is the schedule. Its device matrix is (n+1)×(n+1) — data plus
	// checksum column (col n) and checksum row (row n) — its dY row n
	// holds Yce, and its dS keeps the left-update intermediate for
	// reverse computation.
	d hybrid.DeviceRun
	// dVsum holds Vᵀe; dFresh the fresh sums of a location.
	dVsum, dFresh *gpu.Matrix
	// ckPanel is the diskless checkpoint (host memory), (n+1)×nb: the
	// pristine panel columns, their checksum-row segment in row n.
	ckPanel *matrix.Matrix
	// chk completes the checksum kernels issued so far on the side
	// stream (the device's Lookahead stream, FIFO): every later reader
	// of the checksum row or column waits on it.
	chk sim.Event
	// recovered counts the current iteration's recoveries.
	recovered int
	// deviceLost marks a fail-stop kill request (IterCtx.KillDevice):
	// with a single device there are no survivors to restart on, so the
	// reduction fails immediately rather than computing on poison.
	deviceLost bool
}

// Reduce runs the fault-tolerant hybrid Hessenberg reduction of a
// (not modified).
func Reduce(a *matrix.Matrix, opt Options) (*Result, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("ft: matrix must be square")
	}
	fused, err := substrateFused(opt)
	if err != nil {
		return nil, err
	}
	if len(opt.Devices) > 0 {
		if opt.PostProcess {
			return nil, errors.New("ft: PostProcess runs on the single-device schedule only (Options.Devices is set)")
		}
		return reduceMulti(a, opt, fused)
	}
	if opt.Device == nil {
		return nil, errors.New("ft: Options.Device is required")
	}
	dev := opt.Device
	if opt.Obs != nil {
		dev.SetObs(opt.Obs)
	}
	dev.SetJob(opt.Trace.JobID())
	sp := opt.Trace.Span("ft.reduce", opt.Trace.ParentSpan())
	defer opt.Trace.EndSpan(sp)
	dev.SetContext(opt.Ctx)

	r := &reducer{run: newRun(a, opt, hybrid.DeviceLane(dev), dev.Params, fused), dev: dev}
	r.device = dev.Name()
	err = r.attempt(a)
	if errors.Is(err, errPostProcessDetected) {
		// The comparator's one end-of-run detection fired. An error that
		// has propagated through every later update cannot be located
		// anymore, so the whole factorization re-executes with
		// per-iteration checks, on the same device: the retry's modeled
		// time includes the lost attempt.
		r.record(obs.KindDetection, r.res.BlockedIters, r.gap, "post-process", "")
		r.record(obs.KindRecovery, r.res.BlockedIters, 0, "post-process rerun", "")
		opt.PostProcess = false
		return r.rerun(a, opt)
	}
	return r.res, err
}

// attempt runs the reduction once on the device — hybrid's schedule
// with this reducer as its guard — freeing every device allocation and
// collecting the fused-substrate statistics before it returns.
func (r *reducer) attempt(a *matrix.Matrix) error {
	dev := r.dev
	n, nb := r.n, r.nb
	if n <= 1 {
		return nil
	}
	defer r.fuse([]*gpu.Device{dev})()

	// Algorithm 3, lines 1-2: transfer and encode, on the extended
	// device matrix. τ's ‖A‖₁ pass runs on the host while the upload is
	// in flight.
	d := &r.d
	*d = hybrid.DeviceRun{
		Dev: dev, HostA: r.hostA, Tau: r.tau, NB: nb,
		Lookahead: r.la, DisableOverlap: r.opt.DisableOverlap, Guard: r,
	}
	up := d.Setup(1)
	r.threshold(a)
	dev.Sync(up)
	d.S, r.dVsum, r.dFresh = dev.Alloc(n+1, nb), dev.Alloc(nb, 1), dev.Alloc(n+1, 2)
	defer func() {
		d.Free()
		for _, m := range []*gpu.Matrix{d.S, r.dVsum, r.dFresh} {
			dev.Free(m)
		}
	}()
	r.ckPanel = dev.Mode.HostMatrix(n+1, nb)
	// The encode runs on the side stream, beside the first panel: the
	// panel only reads the data the encode reads.
	dev.SetPhase("encode")
	prev := dev.SetStream(dev.Lookahead)
	dev.RowSums(d.A, 0, 0, n, n, d.A, 0, n)
	r.chk = dev.ColSums(d.A, 0, 0, n, n, d.A, n, 0)
	dev.SetStream(prev)

	if _, err := d.Run(); err != nil {
		return err
	}
	if err := r.checkFused([]*gpu.Device{dev}); err != nil {
		return err
	}
	r.res.SetTiming(dev.Elapsed())
	return nil
}

// Boundary is the iteration boundary: the injection hook, then the
// single-device loss.
func (r *reducer) Boundary(iter, p, ib int) error {
	r.recovered = 0
	if r.opt.Hook != nil {
		r.opt.Hook.BeforeIteration(&IterCtx{
			Dev: r.dev, DA: r.d.A, Host: r.hostA,
			Iter: iter, Panel: p, NB: ib, N: r.n,
			lost: &r.deviceLost,
		})
	}
	if !r.deviceLost {
		return nil
	}
	r.emit(obs.Ev(obs.KindDeviceLoss, iter))
	return fmt.Errorf("%w: device lost at iteration %d (a restart needs the multi-device path)", ErrUncorrectable, iter)
}

// Offload takes the diskless checkpoint beside line 4's panel transfer:
// the panel's full column height — the top rows are the data the
// device-side right update will overwrite — and its checksum-row
// segment, which the end-of-iteration refresh overwrites, land in host
// memory through one device-mapped read (rows 0..n of a column are
// contiguous in the extended matrix) on the stream the panel's GEMVs
// leave free (the compute queue's tail under lookahead, the side stream
// otherwise), so neither the copy engine, the host nor the panel's
// GEMVs spend time on it. It waits for ready and the side stream's
// checksum kernels, as the transfer home waits for ready; the panel
// upload waits for it. A re-execution retrieves the pre-factorized
// panel from the checkpoint (host memory) instead of the transfer, as
// the paper's recovery procedure does.
func (r *reducer) Offload(iter, p, ib int, redo bool, ready sim.Event) sim.Event {
	dev := r.dev
	n, k := r.n, p+1
	ev := obs.Ev(obs.KindCheckpointSave, iter)
	dev.SetPhase("checkpoint")
	var ck sim.Event
	if redo {
		dev.HostOp(r.pp.VecHost((n-k)*ib), func() {
			r.hostA.View(k, p, n-k, ib).CopyFrom(r.ckPanel.View(k, 0, n-k, ib))
		})
		ev.Kind = obs.KindReexecution
	} else {
		ready = sim.Latest(ready.At, []sim.Event{r.chk})
		ck = dev.D2HTail(r.ckPanel.View(0, 0, n+1, ib), r.d.A, 0, p, ready)
	}
	r.emit(ev)
	return ck
}

// AfterTop issues the checksum kernels of the iteration's right update
// on the side stream, then maintains the Q checksums on the host while
// the device works (Section IV-E, Figure 5). One launch computes line
// 7's column sums of V (unit-diagonal aware), Vce's extension row, into
// dVsum, and line 6's Yce = eᵀY = (eᵀA)·V·T into row n of dY: Y's
// checksums derived from the maintained checksum row, which must be
// read before the refresh overwrites the panel's entries. It is charged
// as its two GEMVs less one launch. The right update of G reads Yce and
// the checksum-column update reads Vᵀe, so both wait on the returned
// event. The refresh of the panel's
// checksum-row entries from their final Hessenberg values (the sum of
// rows 0..c+1, the rest being implicit zeros) waits on top; it gates
// only the checksum row's later readers.
func (r *reducer) AfterTop(p, ib int, top sim.Event) sim.Event {
	dev := r.dev
	prevPhase := dev.SetPhase("checksum_maintenance")
	prevStream := dev.SetStream(dev.Lookahead)
	n, k := r.n, p+1
	dA, dY, dT, vsum := r.d.A, r.d.Y, r.d.T, r.dVsum.Data
	pp := dev.Params
	cost := 2*pp.GemvDevice(n-k, ib) + pp.VecDevice(ib*ib/2) - pp.KernelLaunchSec
	yce := dev.Custom(cost, func() {
		for j := 0; j < ib; j++ {
			s := 1.0 // implicit unit diagonal of V
			for row := k + j + 1; row < n; row++ {
				s += dA.At(row, p+j)
			}
			vsum[j] = s
		}
		w := make([]float64, ib)
		for j := 0; j < ib; j++ {
			// chkrow index k+j pairs with V's implicit unit diagonal.
			s := dA.At(n, k+j)
			for row := k + j + 1; row < n; row++ {
				s += dA.At(n, row) * dA.At(row, p+j)
			}
			w[j] = s
		}
		// w := Tᵀ·w  (row vector times T).
		blas.Dtrmv(blas.Upper, blas.Trans, blas.NonUnit, ib, dT.Data, dT.Stride, w, 1)
		for j := 0; j < ib; j++ {
			dY.Data[j*dY.Stride+n] = w[j]
		}
	})
	r.chk = dev.Custom(dev.Params.GemvDevice(p+ib+1, ib), func() {
		for j := 0; j < ib; j++ {
			c := p + j
			last, s := min(c+1, n-1), 0.0
			for i := 0; i <= last; i++ {
				s += dA.At(i, c)
			}
			dA.Data[c*dA.Stride+n] = s
		}
	}, top)
	dev.SetStream(prevStream)
	r.absorbQ(p, ib)
	dev.SetPhase(prevPhase)
	return yce
}

// AfterRight carries the right update to the checksum column (lines 8
// and 10; the checksum row rode the G update as row n). It runs once,
// after the remainder, so under lookahead the GEMV stays whole and its
// summation order, hence the Sre/Sce comparison, is unchanged.
func (r *reducer) AfterRight(p, ib int, right sim.Event) sim.Event {
	defer r.dev.SetPhase(r.dev.SetPhase("checksum_maintenance"))
	return r.chkColRight(ib, -1, right)
}

// AfterLeft carries line 11's left update of trailing columns [lo, hi)
// — the checksum column rode it as column n — to the checksum row
// through the retained S. A part short of the last column is the
// lookahead's priority part: its kernel runs on the side stream, so the
// next panel's transfer does not wait for it; the checkpoint of the
// panel's checksum-row segment does.
func (r *reducer) AfterLeft(p, ib, lo, hi int, left sim.Event) sim.Event {
	dev := r.dev
	defer dev.SetPhase(dev.SetPhase("checksum_maintenance"))
	if hi < r.d.A.Cols-p-ib {
		defer dev.SetStream(dev.SetStream(dev.Lookahead))
		r.chk = r.kernChkRowLeft(p, ib, lo, hi, -1, left)
		return left
	}
	return r.kernChkRowLeft(p, ib, lo, hi, -1, left)
}

// AfterIteration checks the iteration (lines 12-13) and, on a mismatch,
// reverses it, locates and corrects the error(s) (lines 14-15) and asks
// for the re-execution. The post-processing comparator skips the check:
// errors keep propagating until its single end-of-run detection.
func (r *reducer) AfterIteration(iter, p, ib int, left sim.Event) (bool, error) {
	if r.opt.PostProcess || !r.detectAt(iter, left) {
		return false, nil
	}
	r.record(obs.KindDetection, iter, r.gap, "", "")
	if r.recovered >= maxRecoveries {
		return false, fmt.Errorf("%w (iteration %d)", ErrDetectionStorm, iter)
	}
	if err := r.recover(iter, p, ib); err != nil {
		return false, err
	}
	r.recovered++
	r.record(obs.KindRecovery, iter, 0, "reexecution", "")
	return true, nil
}

// Finish runs the comparator's end-of-run detection, then the optional
// whole-matrix verification of the device-resident H data.
func (r *reducer) Finish(iters, p int, last sim.Event) error {
	r.res.BlockedIters = iters
	if r.opt.PostProcess && iters > 0 && r.detectAt(iters, last) {
		return errPostProcessDetected
	}
	if !r.opt.FinalHCheck {
		return nil
	}
	r.dev.SetPhase("final_check")
	return r.finalHCheck(p)
}

// BeforeCleanup verifies the Householder storage (Section IV-E/F) of
// the columns left of p while the trailing columns travel home: no
// injection point follows the last boundary, so those columns are
// final.
func (r *reducer) BeforeCleanup(p int) error {
	defer r.dev.SetPhase(r.dev.SetPhase("q_protect"))
	return r.verifyQ(p)
}

// chkColRight adds sign·Y·(Vᵀe) to the checksum column.
func (r *reducer) chkColRight(ib int, sign float64, dep sim.Event) sim.Event {
	return r.dev.Gemv(blas.NoTrans, r.n, ib, sign, r.d.Y, 0, 0, r.dVsum, 0, 0, 1, r.d.A, 0, r.n, dep)
}

// kernChkRowLeft applies sign·(eᵀV)·Tᵀ·Vᵀ·C to the checksum-row entries
// of the trailing columns [lo, hi), clamped to the data columns (the
// checksum column has no row entry), using the retained intermediate S.
func (r *reducer) kernChkRowLeft(p, ib, lo, hi int, sign float64, deps ...sim.Event) sim.Event {
	dev := r.dev
	n := r.n
	if ndata := n - p - ib; hi > ndata {
		hi = ndata
	}
	cost := dev.Params.GemvDevice(hi-lo, ib)
	dA, dS, dVsum := r.d.A, r.d.S, r.dVsum
	return dev.Custom(cost, func() {
		for j := lo; j < hi; j++ {
			s := 0.0
			for l := 0; l < ib; l++ {
				s += dS.Data[l*dS.Stride+j] * dVsum.Data[l]
			}
			dA.Data[(p+ib+j)*dA.Stride+n] += sign * s
		}
	}, deps...)
}
