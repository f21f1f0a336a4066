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
	"context"
	"errors"

	"repro/internal/devpool"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// PanelFactorMulti runs the hybrid DLAHR2 panel factorization with the
// per-column trailing-matrix GEMV sharded across the pool: each owner
// computes its slabs' partials and the host combines them in ascending
// slab order (see PanelFactor for the single-device variant and the
// meaning of the arguments). With la the per-slab GEMVs run on each
// device's lookahead stream, overlapping the previous iteration's
// remainder update (see Shard.PanelGemvIssue).
func PanelFactorMulti(sh *devpool.Shard, hostA, y, t *matrix.Matrix, tau []float64, n, p, k, ib int, la bool) error {
	pool := sh.Pool
	return panelFactorWith(PoolLane(pool), pool.Params, hostA, y, t, tau, n, p, k, ib,
		func(i, c int) { sh.PanelGemvIssue(hostA, i, p, k, ib, la) },
		func(i, c int) { sh.PanelGemvCollect(y, i, k) })
}

// reduceMulti is the multi-device body of Reduce, selected when
// Options.Devices is non-empty.
func reduceMulti(a *matrix.Matrix, opt Options) (*Result, error) {
	n := a.Rows
	if opt.BeforeIteration != nil {
		return nil, errors.New("hybrid: BeforeIteration is not supported on the multi-device path (use the ft package's Hook)")
	}
	nb := opt.NB
	if nb <= 0 {
		nb = DefaultNB
	}
	pool := devpool.Wrap(opt.Devices)
	pp := pool.Params
	if opt.Obs != nil {
		pool.SetObs(opt.Obs)
	}
	pool.SetJob(opt.Trace.JobID())
	sp := opt.Trace.Span("hybrid.reduce_multi", opt.Trace.ParentSpan())
	defer opt.Trace.EndSpan(sp)
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	pool.SetContext(ctx)

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

	tHost := pool.Mode.HostMatrix(nb, nb)
	yHost := pool.Mode.HostMatrix(n, nb)

	lookahead := !opt.DisableLookahead
	nx := nb
	if nx < 2 {
		nx = 2
	}
	p := 0
	iter := 0
	for ; n-1-p > nx; p += nb {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ib := min(nb, n-1-p)
		k := p + 1

		// Panel to the host, factorize with sharded trailing GEMVs. After
		// the first iteration of a lookahead run these columns were
		// priority-updated ahead of the remainder, so the offload and the
		// host factorization hide under the in-flight trailing update.
		la := lookahead && iter > 0
		if la {
			pool.SetPhase("panel_hidden")
		} else {
			pool.SetPhase("panel")
		}
		sh.PanelD2H(hostA, p, k, ib)
		if err := PanelFactorMulti(sh, hostA, yHost, tHost, tau, n, p, k, ib, la); err != nil {
			return nil, err
		}

		// Broadcast the panel products, assemble Y's top rows on the
		// host (AllReduce over per-slab partials), and apply the two
		// trailing updates slab-locally on every owner — the next panel's
		// columns first (priority), then the remainder. The stored
		// subdiagonal beta needs no EI corner trick here: the dense
		// broadcast V carries the unit diagonal explicitly.
		pool.SetPhase("right_update")
		sh.Broadcast(hostA, tHost, p, k, ib)
		sh.YTop(yHost, tHost, p, k, ib)
		sh.BroadcastY(yHost, ib)
		if lookahead && n-1-(p+nb) > nx {
			sh.PriorityUpdate(p, k, ib, nb)
		}
		sh.RightUpdate(p, k, ib)
		pool.SetPhase("left_update")
		sh.LeftUpdate(p, k, ib)

		if opt.AfterIteration != nil {
			opt.AfterIteration(IterInfo{Iter: iter, Panel: p, NB: ib, N: n})
		}
		iter++
	}
	res.BlockedIters = iter

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// One gather at the end replaces the per-iteration finished-block
	// transfers of the single-device schedule: the slabs are
	// authoritative for the whole matrix, so this also delivers the
	// finished block columns in a single sweep.
	pool.SetPhase("cleanup")
	sh.Gather(hostA)
	pool.HostOp(CleanupCost(pp, n, p), func() {
		lapack.Dgehd2(n, p, hostA.Data, hostA.Stride, tau, make([]float64, n))
	})
	pool.WaitAll()
	pool.SetPhase("")
	pool.FinishRun()

	res.SimSeconds = pool.Elapsed()
	if res.SimSeconds > 0 {
		res.ModelGFLOPS = sim.HessenbergFlops(n) / res.SimSeconds / 1e9
	}
	return res, nil
}
