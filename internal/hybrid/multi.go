// Multi-device reduction: the trailing matrix is sharded block-column
// wise across a devpool.Pool, each slab stays resident on its owner for
// the whole factorization, and the per-iteration panel products (dense
// V, T, Y) are broadcast. Host-side synchronization happens only at the
// per-column panel GEMV partials and the Y-top AllReduce — the paper's
// hybrid schedule with the trailing update fanned out over K devices.
//
// Determinism: the slab grid depends only on (n, nb) and every
// cross-slab contraction is combined on the host in ascending slab
// order, so H, Q and tau are bit-identical at every device count.
package hybrid

import (
	"errors"

	"repro/internal/devpool"
	"repro/internal/lapack"
	"repro/internal/matrix"
)

// panelFactorMulti runs the hybrid DLAHR2 panel factorization with the
// per-column trailing-matrix GEMV sharded across the pool: each owner
// computes its slabs' partials and the host combines them in ascending
// slab order (see panelFactor for the single-device variant and the
// meaning of the arguments). With la each device's segmented GEMV runs
// on its lookahead stream, overlapping the previous iteration's
// remainder update (see Shard.PanelGemvIssue).
func panelFactorMulti(sh *devpool.Shard, hostA, y, t *matrix.Matrix, tau []float64, n, p, k, ib int, la bool) error {
	pool := sh.Pool
	return panelFactorWith(PoolLane(pool), pool.Params, hostA, y, t, tau, n, p, k, ib,
		func(i, c int) { sh.PanelGemvIssue(hostA, i, p, k, ib, la) },
		func(i, c int) { sh.PanelGemvCollect(y, i, k) })
}

// PoolGuard is a protection layer over the pool schedule: the
// fault-tolerant reduction's Algorithm 3 joins PoolRun.Run at these
// points, its checksums riding the unchanged updates. A non-nil error
// aborts the run and is returned from Run as is.
type PoolGuard interface {
	// Boundary runs at the start of blocked iteration iter (panel p,
	// k = p+1, width ib), before the panel offload reads any slab.
	Boundary(iter, p, k, ib int) error
	// AfterRight runs between the right and the left update.
	AfterRight(iter, p, k, ib int) error
	// AfterLeft runs once the iteration's left update is issued.
	AfterLeft(p, ib int)
	// Finish runs after the last of iters blocked iterations (the
	// unblocked cleanup starts at column p), before the final gather.
	Finish(iters, p int) error
}

// PoolRun is one reduction on the pool schedule.
type PoolRun struct {
	// Shard holds the trailing matrix, uploaded (and encoded, under a
	// guard) by the caller.
	Shard *devpool.Shard
	// HostA is the packed result under assembly; Y (rows ≥ n, if any,
	// carry the guard's checksum rows) and T receive the panel products;
	// Tau receives the reflector scalars.
	HostA, Y, T *matrix.Matrix
	Tau         []float64
	NB          int
	// Lookahead enables the depth-1 lookahead split (next panel's
	// columns first, factorization overlapping the remainder).
	Lookahead bool
	// Guard, if set, is the protection layer (nil for the baseline).
	Guard PoolGuard
}

// Run executes the blocked iterations, gathers the slabs and finishes on
// the host, returning the number of blocked iterations. The pool's
// context is checked at every iteration boundary.
func (r PoolRun) Run() (int, error) {
	sh := r.Shard
	pool := sh.Pool
	hostA, g := r.HostA, r.Guard
	n, nb := hostA.Rows, r.NB
	nx := max(nb, 2)
	p := 0
	iter := 0
	for ; n-1-p > nx; p += nb {
		if err := pool.CtxErr(); err != nil {
			return iter, err
		}
		ib := min(nb, n-1-p)
		k := p + 1
		if g != nil {
			if err := g.Boundary(iter, p, k, ib); err != nil {
				return iter, err
			}
		}

		// Panel to the host, factorize with sharded trailing GEMVs. After
		// the first iteration of a lookahead run these columns were
		// priority-updated ahead of the remainder, so the offload and the
		// host factorization hide under the in-flight trailing update.
		la := r.Lookahead && iter > 0
		if la {
			pool.SetPhase("panel_hidden")
		} else {
			pool.SetPhase("panel")
		}
		sh.PanelD2H(hostA, p, k, ib)
		if err := panelFactorMulti(sh, hostA, r.Y, r.T, r.Tau, n, p, k, ib, la); err != nil {
			return iter, err
		}

		// Broadcast the panel products, assemble Y's top rows on the
		// host (AllReduce over per-slab partials), and apply the two
		// trailing updates slab-locally on every owner — the next panel's
		// columns first (priority), then the remainder. The stored
		// subdiagonal beta needs no EI corner trick here: the dense
		// broadcast V carries the unit diagonal explicitly. Under a guard
		// the panel slab's checksum row still holds the pre-factorization
		// column sums YTop's checksum-row partial needs.
		pool.SetPhase("right_update")
		sh.Broadcast(hostA, r.T, p, k, ib)
		sh.YTop(r.Y, r.T, p, k, ib)
		sh.BroadcastY(r.Y, ib)
		if r.Lookahead && n-1-(p+nb) > nx {
			sh.PriorityUpdate(p, k, ib, nb)
		}
		sh.RightUpdate(p, k, ib)
		if g != nil {
			if err := g.AfterRight(iter, p, k, ib); err != nil {
				return iter, err
			}
		}
		pool.SetPhase("left_update")
		sh.LeftUpdate(p, k, ib)
		if g != nil {
			g.AfterLeft(p, ib)
		}
		iter++
	}

	if err := pool.CtxErr(); err != nil {
		return iter, err
	}
	if g != nil {
		if err := g.Finish(iter, p); err != nil {
			return iter, err
		}
	}
	// One gather at the end replaces the per-iteration finished-block
	// transfers of the single-device schedule: the slabs are
	// authoritative for the whole matrix, so this also delivers the
	// finished block columns in a single sweep.
	pool.SetPhase("cleanup")
	sh.Gather(hostA)
	pool.HostOp(cleanupCost(pool.Params, n, p), func() {
		lapack.Dgehd2(n, p, hostA.Data, hostA.Stride, r.Tau, make([]float64, n))
	})
	pool.WaitAll()
	pool.SetPhase("")
	pool.FinishRun()
	return iter, nil
}

// reduceMulti is the multi-device body of Reduce, selected when
// Options.Devices is non-empty.
func reduceMulti(a *matrix.Matrix, opt Options, nb int) (*Result, error) {
	n := a.Rows
	if opt.BeforeIteration != nil {
		return nil, errors.New("hybrid: BeforeIteration is not supported on the multi-device path (use the ft package's Hook)")
	}
	pool := devpool.Wrap(opt.Devices)
	if opt.Obs != nil {
		pool.SetObs(opt.Obs)
	}
	pool.SetJob(opt.Trace.JobID())
	sp := opt.Trace.Span("hybrid.reduce_multi", opt.Trace.ParentSpan())
	defer opt.Trace.EndSpan(sp)
	pool.SetContext(opt.Ctx)

	hostA := pool.Mode.HostCopy(a)
	tau := make([]float64, max(n-1, 1))
	res := &Result{N: n, NB: nb, Packed: hostA, Tau: tau}
	if n <= 1 {
		return res, nil
	}

	pool.SetPhase("setup")
	sh := devpool.NewShard(pool, n, nb, 0)
	defer sh.Free()
	sh.Upload(hostA)

	iters, err := PoolRun{
		Shard: sh, HostA: hostA, Tau: tau, NB: nb,
		Y:         pool.Mode.HostMatrix(n, nb),
		T:         pool.Mode.HostMatrix(nb, nb),
		Lookahead: !opt.DisableLookahead,
	}.Run()
	if err != nil {
		return nil, err
	}
	res.BlockedIters = iters
	res.SetTiming(pool.Elapsed())
	return res, nil
}
