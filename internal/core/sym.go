package core

import (
	"context"
	"errors"

	"repro/internal/ftsym"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// SymOptions configures the symmetric (tridiagonalization) path — the
// paper's future-work factorization family.
type SymOptions struct {
	// Ctx, when non-nil, makes the reduction cancellable at blocked
	// iteration boundaries; ReduceSym then returns ctx.Err() within one
	// iteration of cancellation. See Options.Ctx.
	Ctx context.Context
	// NB is the block size (32 if zero).
	NB int
	// FaultTolerant selects the resilient host algorithm (internal/ftsym);
	// otherwise the hybrid device baseline runs (internal/hybrid).
	FaultTolerant bool
	// CostOnly models time only (baseline path only).
	CostOnly bool
	// Hook passes through to the fault-tolerant algorithm.
	Hook ftsym.Hook
	// Obs, when set, receives the run's metric series (ftsym_* counters
	// on the fault-tolerant path; device phase/op timers on the hybrid
	// baseline). Journal receives typed FT event records (fault-tolerant
	// path only).
	Obs     *obs.Registry
	Journal *obs.Journal
	// Trace scopes the run to a served request (see Options.Trace).
	Trace *obs.TraceContext
	// Devices requests a multi-device pool. The symmetric reduction has
	// no multi-device path on either algorithm (see
	// ftsym.Options.Devices for why the triangular storage resists the
	// 1-D slab partition); setting this returns
	// ftsym.ErrMultiDeviceUnsupported so the serving layer can map the
	// request shape to a structured client error.
	Devices []*gpu.Device
}

// SymResult carries the tridiagonal factorization T = QᵀAQ.
type SymResult struct {
	N, NB int
	// D, E: diagonal and subdiagonal of T.
	D, E []float64
	// Packed/Tau hold the reflectors.
	Packed *matrix.Matrix
	Tau    []float64
	// Resilience statistics (fault-tolerant path).
	Detections, Recoveries, Corrections int
	// Simulated performance (hybrid baseline path).
	SimSeconds, ModelGFLOPS float64
}

// Q forms the orthogonal factor explicitly.
func (r *SymResult) Q() *matrix.Matrix {
	return lapack.Dorghr(r.N, r.Packed.Data, r.Packed.Stride, r.Tau)
}

// Eigenvalues runs the QL iteration on the tridiagonal factor.
func (r *SymResult) Eigenvalues() ([]float64, error) {
	d := append([]float64(nil), r.D...)
	e := append([]float64(nil), r.E...)
	if err := lapack.Dsterf(r.N, d, e); err != nil {
		return nil, err
	}
	return d, nil
}

// ReduceSym tridiagonalizes a symmetric matrix (lower triangle referenced,
// not modified).
func ReduceSym(a *matrix.Matrix, opt SymOptions) (*SymResult, error) {
	nb := opt.NB
	if nb <= 0 {
		nb = hybrid.DefaultNB
	}
	if opt.FaultTolerant {
		if opt.CostOnly {
			return nil, errors.New("core: the fault-tolerant symmetric path is host-side (no cost-only mode)")
		}
		res, err := ftsym.Reduce(a, ftsym.Options{
			Ctx: opt.Ctx, NB: nb, Hook: opt.Hook,
			Obs: opt.Obs, Journal: opt.Journal, Trace: opt.Trace,
			Devices: opt.Devices,
		})
		if err != nil {
			return nil, err
		}
		return &SymResult{
			N: res.N, NB: res.NB, D: res.D, E: res.E,
			Packed: res.Packed, Tau: res.Tau,
			Detections: res.Detections, Recoveries: res.Recoveries,
			Corrections: len(res.Corrected),
		}, nil
	}
	if len(opt.Devices) > 0 {
		// The hybrid baseline has no symmetric multi-device schedule
		// either; surface the same typed error as the resilient path.
		return nil, ftsym.ErrMultiDeviceUnsupported
	}
	base := Options{NB: nb, CostOnly: opt.CostOnly}
	res, err := hybrid.ReduceSym(a, hybrid.Options{
		Ctx: opt.Ctx, NB: nb, Device: base.device(),
		Obs: opt.Obs, Trace: opt.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &SymResult{
		N: res.N, NB: res.NB, D: res.D, E: res.E,
		Packed: res.Packed, Tau: res.Tau,
		SimSeconds: res.SimSeconds, ModelGFLOPS: res.ModelGFLOPS,
	}, nil
}

// Eigen computes the complete eigendecomposition (all eigenvalues with
// right eigenvectors, complex pairs included) through the Hessenberg +
// Francis QR path. The real eigenvectors are the VR columns whose
// eigenvalue has Im == 0.
func Eigen(a *matrix.Matrix, nb int) (*lapack.SchurEigen, error) {
	if nb <= 0 {
		nb = hybrid.DefaultNB
	}
	return lapack.Eigen(a, nb)
}
