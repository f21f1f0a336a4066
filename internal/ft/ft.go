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
// Result embeds hybrid.Result, so the factorization, H(), Q() and the
// modeled time have one definition for both algorithms.
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

// Result extends the hybrid result with resilience statistics.
// BlockedIters excludes re-executions.
type Result struct {
	hybrid.Result
	// Detections counts iteration-end checksum mismatches.
	Detections int
	// Recoveries counts successful reverse+correct+re-execute cycles.
	Recoveries int
	// Reexecutions counts blocked iterations repeated after recovery
	// (equals the ft_reexecutions_total counter).
	Reexecutions int
	// Checkpoints counts diskless panel-checkpoint captures (equals the
	// ft_checkpoints_total counter).
	Checkpoints int
	// CorrectedH lists the corrected device-matrix positions.
	CorrectedH []Injection
	// QCorrections counts elements repaired by the Q checksum check.
	QCorrections int
	// DeviceLosses counts fail-stop device deaths observed during the run
	// (equals the ft_device_losses_total counter).
	DeviceLosses int
	// FailStopRecoveries counts restarts on the surviving devices after a
	// loss (equals the ft_failstop_reconstructions_total counter).
	FailStopRecoveries int
	// SubstrateChecks and SubstrateDetections count the fused-ABFT
	// substrate's per-call checksum verifications and detections across
	// all devices and attempts (Options.Substrate = "fused"; zero under
	// the swept substrate). Substrate detection is report-only — the
	// boundary sweeps remain the corrector — except a non-finite checksum
	// total, which fails the run with ErrUncorrectable rather than
	// risking silent NaN propagation.
	SubstrateChecks     int
	SubstrateDetections int
}

// reducer is the single-device fault-tolerant reduction: the run shell
// plus the extended device matrix, the retained intermediates of the
// reverse computation, and the diskless panel checkpoint.
type reducer struct {
	run
	dev *gpu.Device
	// host panel products: yHost is n×nb (Yce lives only on the device).
	yHost *matrix.Matrix
	tHost *matrix.Matrix
	// device state: dA is (n+1)×(n+1) — data plus checksum column (col n)
	// and checksum row (row n). dY is (n+1)×nb with row n = Yce. dS keeps
	// the left-update intermediate for reverse computation.
	dA, dT, dY, dS, dW *gpu.Matrix
	dVcol, dYcol       *gpu.Matrix
	dVsum              *gpu.Matrix
	dFresh             *gpu.Matrix
	// diskless checkpoint (host memory): pristine panel columns and their
	// checksum-row segment.
	ckPanel  *matrix.Matrix
	ckChkRow *matrix.Matrix
	// panelReady is the completion event of the priority part of the
	// most recent trailing update under lookahead — the earliest instant
	// the next panel's columns (checksum-row segment included) are final
	// on the device.
	panelReady sim.Event
	// deviceLost marks a fail-stop kill request (IterCtx.KillDevice):
	// with a single device there are no survivors to restart on, so the
	// reduction fails immediately rather than computing on poison.
	deviceLost bool
}

// journal appends one FT event stamped with the current simulated time
// and the device it concerns (pool members only; the classic unnamed
// single device leaves the field empty).
func (r *reducer) journal(e obs.Event) {
	e.SimTime = r.dev.Elapsed()
	if e.Device == "" {
		e.Device = r.dev.Name()
	}
	r.opt.Journal.Append(e)
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
	r.emit = r.journal
	err = r.attempt(a)
	if errors.Is(err, errPostProcessDetected) {
		// The comparator's one end-of-run detection fired. An error that
		// has propagated through every later update cannot be located
		// anymore, so the whole factorization re-executes with
		// per-iteration checks, on the same device: the retry's modeled
		// time includes the lost attempt.
		r.detected(r.res.BlockedIters, r.gap, "post-process", "")
		r.res.Recoveries++
		opt.PostProcess = false
		return r.rerun(a, opt)
	}
	return r.res, err
}

// attempt runs the reduction once on the device, freeing every device
// allocation and collecting the fused-substrate statistics before it
// returns.
func (r *reducer) attempt(a *matrix.Matrix) error {
	dev := r.dev
	n, nb := r.n, r.nb
	if n <= 1 {
		return nil
	}
	defer r.fuse([]*gpu.Device{dev})()
	r.threshold(a)

	// Allocate the extended device matrix and workspaces.
	r.dA = dev.Alloc(n+1, n+1)
	r.dT = dev.Alloc(nb, nb)
	r.dY = dev.Alloc(n+1, nb)
	r.dS = dev.Alloc(n+1, nb)
	r.dW = dev.Alloc(n+1, nb)
	r.dVcol = dev.Alloc(n, 1)
	r.dYcol = dev.Alloc(n, 1)
	r.dVsum = dev.Alloc(nb, 1)
	r.dFresh = dev.Alloc(n+1, 2)
	defer func() {
		for _, m := range []*gpu.Matrix{r.dA, r.dT, r.dY, r.dS, r.dW, r.dVcol, r.dYcol, r.dVsum, r.dFresh} {
			dev.Free(m)
		}
	}()
	r.yHost = dev.Mode.HostMatrix(n, nb)
	r.tHost = dev.Mode.HostMatrix(nb, nb)
	r.ckPanel = dev.Mode.HostMatrix(n, nb)
	r.ckChkRow = dev.Mode.HostMatrix(1, nb)

	// Algorithm 3, lines 1-2: transfer and encode.
	dev.H2D(r.dA, 0, 0, r.hostA)
	dev.SetPhase("encode")
	r.encode()

	nx := max(nb, 2)
	var prevLeft sim.Event
	p := 0
	iter := 0
	for ; n-1-p > nx; p += nb {
		if err := dev.CtxErr(); err != nil {
			return err
		}
		ib := min(nb, n-1-p)

		if r.opt.Hook != nil {
			r.opt.Hook.BeforeIteration(&IterCtx{
				Dev: dev, DA: r.dA, Host: r.hostA,
				Iter: iter, Panel: p, NB: ib, N: n,
				lost: &r.deviceLost,
			})
		}
		if r.deviceLost {
			r.res.DeviceLosses++
			r.count("ft_device_losses_total")
			ev := obs.Ev(obs.KindDeviceLoss, iter)
			ev.Target = obs.TargetH
			r.journal(ev)
			return fmt.Errorf("%w: device lost at iteration %d (a restart needs the multi-device path)", ErrUncorrectable, iter)
		}

		recovered := 0
		for attempt := 0; ; attempt++ {
			var err error
			prevLeft, err = r.iteration(iter, p, ib, prevLeft, attempt > 0)
			if err != nil {
				return err
			}
			if r.opt.PostProcess {
				// Comparator mode: no per-iteration check; errors keep
				// propagating until the single end-of-run detection.
				break
			}
			if !r.detectAt(iter, prevLeft) {
				break
			}
			r.detected(iter, r.gap, "", "")
			if attempt >= maxRecoveries {
				return fmt.Errorf("%w (iteration %d)", ErrDetectionStorm, iter)
			}
			if err := r.recover(iter, p, ib); err != nil {
				return err
			}
			recovered++
			r.count("ft_recoveries_total")
		}
		r.res.Recoveries += recovered
		iter++
	}
	r.res.BlockedIters = iter

	if r.opt.PostProcess && iter > 0 && r.detectAt(iter, prevLeft) {
		return errPostProcessDetected
	}
	if err := dev.CtxErr(); err != nil {
		return err
	}
	// Optional whole-matrix verification of the device-resident H data.
	if r.opt.FinalHCheck {
		dev.SetPhase("final_check")
		if err := r.finalHCheck(p); err != nil {
			return err
		}
	}

	// Bring the remaining trailing columns home and finish on the host.
	hybrid.Cleanup(dev, r.hostA, r.dA, r.tau, n, p, prevLeft)
	if err := r.verifyQ(p); err != nil {
		return err
	}
	dev.DeviceSynchronize()
	dev.SetPhase("")
	dev.FinishRun()
	if err := r.checkFused([]*gpu.Device{dev}); err != nil {
		return err
	}
	r.res.SetTiming(dev.Elapsed())
	return nil
}

// encode computes the initial checksum column and row on the device
// (Algorithm 3, line 2: two DGEMV-class kernels).
func (r *reducer) encode() {
	n := r.n
	r.dev.RowSums(r.dA, 0, 0, n, n, r.dA, 0, n)
	r.dev.ColSums(r.dA, 0, 0, n, n, r.dA, n, 0)
}

// iteration executes one blocked iteration (Algorithm 3, lines 4-11) for
// the panel starting at column p, returning the left-update completion
// event. redo marks a re-execution after recovery (the panel is taken
// from the checkpoint instead of the device).
func (r *reducer) iteration(iter, p, ib int, prevLeft sim.Event, redo bool) (sim.Event, error) {
	dev := r.dev
	n := r.n
	k := p + 1
	pp := dev.Params

	// Under lookahead the panel's offload and host factorization overlap
	// the previous iteration's remainder update: the offload waits only
	// for the priority part (panelReady), and the hidden work is reported
	// under its own phase. A re-execution reads the checkpoint instead,
	// with the whole previous attempt already reversed, so it never hides.
	hidden := r.la && iter > 0 && !redo
	panelPhase := "panel"
	if hidden {
		panelPhase = "panel_hidden"
	}
	panelDep := prevLeft
	if r.la {
		panelDep = r.panelReady
	}

	if redo {
		// Retrieve the pre-factorized panel from the diskless checkpoint
		// (host memory), as the paper's recovery procedure does.
		dev.SetPhase("checkpoint")
		dev.HostOp(pp.VecHost((n-k)*ib), func() {
			r.hostA.View(k, p, n-k, ib).CopyFrom(r.ckPanel.View(k, 0, n-k, ib))
		})
		r.count("ft_reexecutions_total")
		r.res.Reexecutions++
		re := obs.Ev(obs.KindReexecution, iter)
		re.Target = obs.TargetH
		r.journal(re)
	} else {
		// Line 4: send the panel to the host. The fault-tolerant variant
		// transfers the full column height: the extra top rows are the
		// diskless checkpoint of the data the device-side right update
		// will overwrite.
		dev.SetPhase(panelPhase)
		panel := r.hostA.View(0, p, n, ib)
		dev.Sync(dev.D2HAsync(panel, r.dA, 0, p, panelDep))
		dev.SetPhase("checkpoint")
		dev.HostOp(pp.VecHost(n*ib), func() {
			r.ckPanel.View(0, 0, n, ib).CopyFrom(panel)
		})
		// Checkpoint the checksum-row segment of the panel columns, which
		// the end-of-iteration refresh overwrites.
		ckSeg := r.ckChkRow.View(0, 0, 1, ib)
		dev.Sync(dev.D2HAsync(ckSeg, r.dA, n, p, panelDep))
		r.count("ft_checkpoints_total")
		r.res.Checkpoints++
		ck := obs.Ev(obs.KindCheckpointSave, iter)
		ck.Target = obs.TargetH
		r.journal(ck)
	}

	// Line 5: hybrid panel factorization (CPU + device GEMV), identical to
	// the non-fault-tolerant algorithm.
	dev.SetPhase(panelPhase)
	if err := hybrid.PanelFactor(dev, r.hostA, r.yHost, r.tHost, r.tau, r.dA, r.dVcol, r.dYcol, n, p, k, ib, hidden); err != nil {
		return prevLeft, err
	}

	// Maintain the Q checksums on the otherwise idle CPU (Section IV-E,
	// Figure 5) — overlapped with the device work below.
	r.absorbQ(p, ib)

	// Upload V, Y and T, as in the baseline.
	hybrid.UploadPanel(dev, r.hostA, r.yHost, r.tHost, r.dA, r.dY, r.dT, n, p, ib, prevLeft)

	// Line 7: column sums of V (unit-diagonal aware), Vce's extension row.
	dev.SetPhase("checksum_maintenance")
	vsumDone := r.kernVsum(p, ib)
	// Line 6: Yce = eᵀY = (eᵀA)·V·T computed from the maintained checksum
	// row (must read the checksum row before it is refreshed below).
	ychkDone := r.kernYce(p, ib, vsumDone)

	// Y's top rows and the panel columns' top rows, as in the baseline.
	ytopDone, aDone := hybrid.UpdateTop(dev, r.dA, r.dY, r.dT, r.dW, n, p, ib)
	// Refresh the checksum-row entries of the now-final panel columns
	// directly from the Hessenberg data (their mathematical column sums).
	dev.SetPhase("checksum_maintenance")
	chkSegDone := r.kernPanelColSums(p, ib, aDone, ychkDone)

	// Line 9: the finished block travels home under the remaining
	// updates (after them under DisableOverlap).
	if !r.opt.DisableOverlap {
		hybrid.SendFinished(dev, r.hostA, r.dA, p, ib, false, aDone)
	}

	// Lines 8 and 10: right update of Mre (top rows + checksum handling)
	// and Gfe (lower rows + checksum row), with the EI corner trick. Under
	// lookahead the update — and the checksum-row maintenance riding on it
	// — is split column-wise: a priority part covering only the next
	// panel's ib2 columns (all n+1 extended rows) completes first and
	// gates the next panel offload; the remainder streams behind it. The
	// checksum COLUMN's Gemv stays whole inside the remainder so its
	// summation order, and hence the Sre/Sce comparison, is untouched.
	dev.SetPhase("right_update")
	ei := dev.Mode.HostElem(r.hostA, p+ib, p+ib-1)
	e1 := dev.Set(r.dA, p+ib, p+ib-1, 1, ytopDone, ychkDone)
	ib2 := 0
	if r.la && n-1-(p+ib) > max(r.nb, 2) {
		// Priority: next panel's columns, top rows then rows k..n.
		ib2 = min(ib, n-1-(p+ib))
		eMp := dev.Gemm(blas.NoTrans, blas.Trans, k, ib2, ib, -1, r.dY, 0, 0, r.dA, p+ib, p, 1, r.dA, 0, p+ib, e1)
		eGp := dev.Gemm(blas.NoTrans, blas.Trans, n+1-k, ib2, ib, -1, r.dY, k, 0, r.dA, p+ib, p, 1, r.dA, k, p+ib, eMp, chkSegDone)
		dev.SetPhase("left_update")
		r.panelReady = r.leftUpdate(p, ib, 0, ib2, eGp)
		dev.SetPhase("right_update")
	}
	// Remainder (everything without lookahead): every trailing column past
	// the priority part. G rows k..n-1 plus the checksum row n go in one
	// GEMM (dY row n = Yce).
	eM := dev.Gemm(blas.NoTrans, blas.Trans, k, n-p-ib-ib2, ib, -1, r.dY, 0, 0, r.dA, p+ib+ib2, p, 1, r.dA, 0, p+ib+ib2, e1)
	eG := dev.Gemm(blas.NoTrans, blas.Trans, n+1-k, n-p-ib-ib2, ib, -1, r.dY, k, 0, r.dA, p+ib+ib2, p, 1, r.dA, k, p+ib+ib2, eM, chkSegDone)
	// Checksum column under the right update: Ace −= Y·(Vᵀe).
	dev.SetPhase("checksum_maintenance")
	eCk := dev.Gemv(blas.NoTrans, n, ib, -1, r.dY, 0, 0, r.dVsum, 0, 0, 1, r.dA, 0, n, eG)
	dev.SetPhase("right_update")
	eC := dev.Set(r.dA, p+ib, p+ib-1, ei, eCk)
	// Line 11: left update of trail(A)fe — the remainder's data columns
	// plus the checksum column (col n), with the checksum row updated
	// through the retained intermediate S.
	dev.SetPhase("left_update")
	left := r.leftUpdate(p, ib, ib2, n-p-ib+1, eC)
	if ib2 == 0 {
		r.panelReady = left
	}
	if r.opt.DisableOverlap {
		hybrid.SendFinished(dev, r.hostA, r.dA, p, ib, true, aDone, left)
	}
	return left, nil
}

// kernVsum computes vsum = Vᵀe (unit-diagonal-aware column sums of the
// stored Householder panel) into dVsum.
func (r *reducer) kernVsum(p, ib int) sim.Event {
	dev := r.dev
	n, k := r.n, p+1
	cost := dev.Params.GemvDevice(n-k, ib)
	dA, dVsum := r.dA, r.dVsum
	return dev.Custom(cost, func() {
		for j := 0; j < ib; j++ {
			s := 1.0 // implicit unit diagonal of V
			for row := k + j + 1; row < n; row++ {
				s += dA.At(row, p+j)
			}
			dVsum.Data[j] = s
		}
	})
}

// kernYce computes Yce = (eᵀA)·V·T from the maintained checksum row into
// row n of dY (the paper's line 6: the checksums of Y derived from the
// checksums of the trailing matrix).
func (r *reducer) kernYce(p, ib int, deps ...sim.Event) sim.Event {
	dev := r.dev
	n, k := r.n, p+1
	cost := dev.Params.GemvDevice(n-k, ib) + dev.Params.VecDevice(ib*ib/2)
	dA, dY, dT := r.dA, r.dY, r.dT
	return dev.Custom(cost, func() {
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
	}, deps...)
}

// kernPanelColSums refreshes the checksum-row entries of the finished
// panel columns from their final Hessenberg values (sum of rows 0..c+1,
// the rest being implicit zeros).
func (r *reducer) kernPanelColSums(p, ib int, deps ...sim.Event) sim.Event {
	dev := r.dev
	n := r.n
	cost := dev.Params.GemvDevice(p+ib+1, ib)
	dA := r.dA
	return dev.Custom(cost, func() {
		for j := 0; j < ib; j++ {
			c := p + j
			top := min(c+1, n-1)
			s := 0.0
			for i := 0; i <= top; i++ {
				s += dA.At(i, c)
			}
			dA.Data[c*dA.Stride+n] = s
		}
	}, deps...)
}

// leftUpdate applies trail(A)fe := trail(A)fe − Vce·Tᵀ·Vᵀ·trail(A)fe
// over trailing columns [lo, hi) (Algorithm 3, line 11): the data columns
// and the checksum column take the baseline's DLARFB, the checksum row
// the Vce extension. Column c here means global column p+ib+c, with
// c = n-p-ib addressing the checksum column (hi = n-p-ib+1 covers them
// all). DLARFB's intermediate S = (CᵀV)·T is formed into dS rows
// [lo, hi) and applied through dW so it survives for the reverse
// computation; each part builds its own rows of S, so S's row c always
// holds column c's intermediate regardless of how the update was split,
// and the recovery reversal (a full-range call) reads the exact values
// the forward pass retained.
func (r *reducer) leftUpdate(p, ib, lo, hi int, dep sim.Event) sim.Event {
	dev := r.dev
	n, k := r.n, p+1
	e := dev.LarfbForm(n-k, hi-lo, ib, r.dA, k, p, r.dT, 0, 0, r.dA, k, p+ib+lo, r.dS, lo, dep)
	e = dev.LarfbApply(-1, n-k, hi-lo, ib, r.dA, k, p, r.dA, k, p+ib+lo, r.dS, lo, r.dW, e)
	prevPhase := dev.SetPhase("checksum_maintenance")
	e = r.kernChkRowLeft(p, ib, lo, hi, -1, e)
	dev.SetPhase(prevPhase)
	return e
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
	dA, dS, dVsum := r.dA, r.dS, r.dVsum
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
