// Package core is the public façade of the reproduction: one entry point
// for reducing a general square matrix to upper Hessenberg form on the
// simulated hybrid CPU+GPU platform, with or without the paper's
// transient-error resilience, plus the end-to-end eigenvalue path that
// motivates the reduction.
//
// Downstream users pick an Algorithm, optionally attach a fault-injection
// hook, and get back the factorization (packed, H, Q), eigenvalues if
// requested, the simulated performance, and the resilience statistics.
// Each layer's result embeds the one below: Result embeds ft.Result,
// which embeds hybrid.Result, as SymResult embeds ft.SymResult, which
// embeds hybrid.SymResult.
//
//	res, err := core.Reduce(a, core.Options{Algorithm: core.FaultTolerant})
//	H, Q := res.H(), res.Q()
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Algorithm selects which reduction to run.
type Algorithm int

const (
	// FaultTolerant runs the paper's FT_DGEHRD (Algorithm 3): ABFT
	// checksums, diskless checkpointing, reverse computation.
	FaultTolerant Algorithm = iota
	// Baseline runs the fault-prone MAGMA-style hybrid reduction
	// (Algorithm 2), the paper's comparison point.
	Baseline
	// CPUOnly runs LAPACK's blocked DGEHRD entirely on the host —
	// the reference implementation, useful for validation.
	CPUOnly
)

func (a Algorithm) String() string {
	switch a {
	case FaultTolerant:
		return "FT-Hess"
	case Baseline:
		return "MAGMA-Hess"
	case CPUOnly:
		return "LAPACK-DGEHRD"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Options configures a reduction. Each field is a result-invariant knob
// (it may change modeled time and the FT counters, never the
// factorization), a key field that may change the result, or per-call
// plumbing; the invariance table in invariance_test.go lists the knobs
// and proves each one alone and crossed with the others, and
// TestOptionsClassified keeps every field classified. ResultKey keys
// the result cache on the input digest and every non-plumbing field.
type Options struct {
	// Ctx, when non-nil, makes the reduction cancellable: the hybrid
	// algorithms (FaultTolerant, Baseline) poll it at every blocked
	// iteration boundary and between panel columns, so cancelling the
	// context makes Reduce return ctx.Err() (context.Canceled or
	// context.DeadlineExceeded) within one iteration, with the device
	// and the shared BLAS pool left reusable. CPUOnly checks once, up
	// front (its single LAPACK call is not interruptible).
	Ctx context.Context
	// Algorithm defaults to FaultTolerant.
	Algorithm Algorithm
	// NB is the block size (32, the paper's choice, if zero).
	NB int
	// Params calibrates the simulated platform (sim.K40c() if zero).
	Params sim.Params
	// CostOnly skips kernel arithmetic and only models time; use for
	// large-N performance sweeps. A cost-only run never reads the input's
	// values (a storage-less matrix.Shape is a valid input) and holds none
	// itself: the Result's Packed is shape-only (nil Data) and its Tau is
	// all zeros, so there is nothing to digest, verify, or reduce further.
	CostOnly bool
	// ThresholdFactor, FinalHCheck, DisableQProtection, DisableOverlap
	// and Hook pass through to the fault-tolerant algorithm.
	ThresholdFactor    float64
	FinalHCheck        bool
	DisableQProtection bool
	DisableOverlap     bool
	// DisableLookahead turns off the depth-1 lookahead schedule (panel
	// k+1 factored under trailing update k) in both hybrid algorithms.
	DisableLookahead bool
	// Substrate selects the BLAS fault-tolerance substrate for the
	// fault-tolerant algorithm: "" or "swept" (default) keeps the
	// iteration-boundary sweeps only; "fused" additionally verifies every
	// device BLAS call in-kernel (fused-ABFT Dgemm, DMR Dgemv/Dger) and
	// refreshes the multi-device panel-slab halo incrementally, counting
	// the checks in the substrate counters. Passes through to
	// ft.Options.Substrate.
	Substrate string
	Hook      ft.Hook
	// Obs, when set, receives run metrics (per-phase timers, kernel-kind
	// time, lane utilization, FT counters). Journal receives the typed
	// fault-tolerance event stream. Both are ignored by CPUOnly.
	Obs     *obs.Registry
	Journal *obs.Journal
	// Trace, when set, scopes the run to a served request: metric series
	// gain a job=<id> label, journal records are stamped with the job, and
	// the reduction's layers record wall-clock spans on the context's
	// tracer. Ignored by CPUOnly (which emits no metrics).
	Trace *obs.TraceContext
	// Device overrides the simulated device built from Params/CostOnly —
	// use it to enable tracing (dev.EnableTrace) around a run.
	Device *gpu.Device
	// DeviceCount > 0 runs the multi-device pool path on that many
	// simulated devices built from Params/CostOnly (0 selects the legacy
	// single-device algorithms). The two schedule families compute
	// different, equally valid bits; within the pool family the result
	// does not depend on the count. Devices, when non-empty, supplies the
	// pool explicitly instead (e.g. pre-traced devices) and takes
	// precedence. CPUOnly rejects a pool.
	DeviceCount int
	Devices     []*gpu.Device
}

// Result is the unified outcome of any algorithm choice: the
// fault-tolerant result, whose hybrid.Result carries the factorization
// (Packed in LAPACK layout, Tau, H(), Q()) and the simulated
// performance. After a CostOnly run Packed has a shape but no values.
// SimSeconds and ModelGFLOPS are zero for CPUOnly, which has no device
// timeline, and the resilience, fail-stop (DESIGN.md §13) and
// fused-substrate statistics are zero for every algorithm but
// FaultTolerant.
type Result struct {
	Algorithm Algorithm
	ft.Result
}

// Checks returns the paper's two verification metrics (Tables II/III)
// against the original matrix a: the residual ‖A−QHQᵀ‖₁/(N‖A‖₁) and the
// orthogonality ‖QQᵀ−I‖₁/N. Q is formed once for both.
func (r *Result) Checks(a *matrix.Matrix) (residual, orthogonality float64) {
	q := r.Q()
	return lapack.FactorizationResidual(a, q, r.H()), lapack.OrthogonalityResidual(q)
}

// platform resolves the simulated platform: Params (sim.K40c() if zero)
// and the execution mode.
func (o *Options) platform() (sim.Params, gpu.Mode) {
	p := o.Params
	if p == (sim.Params{}) {
		p = sim.K40c()
	}
	if o.CostOnly {
		return p, gpu.CostOnly
	}
	return p, gpu.Real
}

func (o *Options) device() *gpu.Device {
	if o.Device != nil {
		return o.Device
	}
	return gpu.New(o.platform())
}

// pool resolves the multi-device option: the explicit Devices slice, or
// DeviceCount freshly built devices, or nil for the single-device path.
func (o *Options) pool() []*gpu.Device {
	if len(o.Devices) > 0 {
		return o.Devices
	}
	if o.DeviceCount <= 0 {
		return nil
	}
	p, mode := o.platform()
	devs := make([]*gpu.Device, o.DeviceCount)
	for i := range devs {
		devs[i] = gpu.NewIndexed(p, mode, i)
	}
	return devs
}

// Reduce reduces the square matrix a (not modified) to upper Hessenberg
// form with the selected algorithm.
func Reduce(a *matrix.Matrix, opt Options) (*Result, error) {
	nb := opt.NB
	if nb <= 0 {
		nb = hybrid.DefaultNB
	}
	pool := opt.pool()
	switch opt.Algorithm {
	case CPUOnly:
		if pool != nil {
			return nil, errors.New("core: CPUOnly cannot run on a device pool")
		}
		n := a.Rows
		if n != a.Cols {
			return nil, errors.New("core: matrix must be square")
		}
		if opt.Ctx != nil {
			if err := opt.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		packed := a.Clone()
		tau := make([]float64, max(n-1, 1))
		lapack.Dgehrd(n, nb, packed.Data, packed.Stride, tau)
		return &Result{Algorithm: CPUOnly, Result: ft.Result{Result: hybrid.Result{N: n, NB: nb, Packed: packed, Tau: tau}}}, nil
	case Baseline:
		hopt := hybrid.Options{
			Ctx: opt.Ctx,
			NB:  nb, DisableOverlap: opt.DisableOverlap,
			DisableLookahead: opt.DisableLookahead,
			Obs:              opt.Obs,
			Trace:            opt.Trace,
		}
		if pool != nil {
			hopt.Devices = pool
		} else {
			hopt.Device = opt.device()
		}
		res, err := hybrid.Reduce(a, hopt)
		if err != nil {
			return nil, err
		}
		return &Result{Algorithm: Baseline, Result: ft.Result{Result: *res}}, nil
	default:
		fopt := ft.Options{
			Ctx:                opt.Ctx,
			NB:                 nb,
			ThresholdFactor:    opt.ThresholdFactor,
			FinalHCheck:        opt.FinalHCheck,
			DisableQProtection: opt.DisableQProtection,
			DisableOverlap:     opt.DisableOverlap,
			DisableLookahead:   opt.DisableLookahead,
			Substrate:          opt.Substrate,
			Hook:               opt.Hook,
			Obs:                opt.Obs,
			Journal:            opt.Journal,
			Trace:              opt.Trace,
		}
		if pool != nil {
			fopt.Devices = pool
		} else {
			fopt.Device = opt.device()
		}
		res, err := ft.Reduce(a, fopt)
		if err != nil {
			return nil, err
		}
		return &Result{Algorithm: FaultTolerant, Result: *res}, nil
	}
}

// Eigenvalues runs the full pipeline the Hessenberg reduction exists for:
// reduce (resiliently, by default) and then apply the Francis double-shift
// QR iteration to the Hessenberg factor.
func Eigenvalues(a *matrix.Matrix, opt Options) ([]lapack.Eig, *Result, error) {
	if opt.CostOnly {
		return nil, nil, errors.New("core: Eigenvalues requires real execution")
	}
	res, err := Reduce(a, opt)
	if err != nil {
		return nil, res, err
	}
	eigs, err := lapack.HessEigenvalues(res.H())
	if err != nil {
		return nil, res, err
	}
	return eigs, res, nil
}
