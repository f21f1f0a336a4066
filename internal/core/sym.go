package core

import (
	"context"

	"repro/internal/ft"
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
	// FaultTolerant guards the hybrid device schedule with the
	// symmetric checksums (ft.ReduceSym); otherwise the bare schedule
	// runs (internal/hybrid). Both produce the same bits.
	FaultTolerant bool
	// CostOnly models time only.
	CostOnly bool
	// Hook passes through to the fault-tolerant algorithm; it needs
	// data, so CostOnly rejects it.
	Hook ft.SymHook
	// Obs, when set, receives the run's metric series: device phase/op
	// timers, plus ftsym_* counters on the fault-tolerant path. Journal
	// receives typed FT event records (fault-tolerant path only).
	Obs     *obs.Registry
	Journal *obs.Journal
	// Trace scopes the run to a served request (see Options.Trace).
	Trace *obs.TraceContext
}

// SymResult carries the tridiagonal factorization T = QᵀAQ, its
// simulated performance and (fault-tolerant path) its resilience
// statistics.
type SymResult struct {
	ft.SymResult
}

// Checks returns ‖A−QTQᵀ‖₁/(N‖A‖₁) and ‖QQᵀ−I‖₁/N against the original
// matrix a, forming Q once for both.
func (r *SymResult) Checks(a *matrix.Matrix) (residual, orthogonality float64) {
	q := r.Q()
	return lapack.FactorizationResidual(a, q, r.T()), lapack.OrthogonalityResidual(q)
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
// not modified) on one device. There is no multi-device symmetric
// schedule: the lower-triangle storage makes 1-D block-column slabs
// ragged, which breaks the equal-work partitioning and the per-slab
// checksum shapes the Hessenberg pool relies on (ROADMAP.md tracks a
// triangular/2-D partitioning).
func ReduceSym(a *matrix.Matrix, opt SymOptions) (*SymResult, error) {
	dev := (&Options{CostOnly: opt.CostOnly}).device()
	if !opt.FaultTolerant {
		res, err := hybrid.ReduceSym(a, hybrid.Options{
			Ctx: opt.Ctx, NB: opt.NB, Device: dev, Obs: opt.Obs, Trace: opt.Trace,
		}, nil)
		if err != nil {
			return nil, err
		}
		return &SymResult{ft.SymResult{SymResult: *res}}, nil
	}
	res, err := ft.ReduceSym(a, ft.SymOptions{
		Ctx: opt.Ctx, NB: opt.NB, Device: dev, Hook: opt.Hook,
		Obs: opt.Obs, Journal: opt.Journal, Trace: opt.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &SymResult{*res}, nil
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
