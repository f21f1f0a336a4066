// Multi-device fault-tolerant reduction: a guard on hybrid's pool
// schedule (hybrid.PoolRun with this file's multiReducer as its
// hybrid.PoolGuard), not a second copy of it. The trailing matrix is
// sharded block-column wise across a devpool.Pool and every slab carries
// its own ABFT halo — a checksum column of row sums and a checksum row
// of column sums, maintained *through* the right and left updates on
// the owning device (devpool.Shard, Pad = 1).
//
// The detection schedule differs from the single-device Algorithm 3 in
// one deliberate way. The failure model injects faults at blocked-
// iteration boundaries, and a boundary is exactly where this path
// checks: at the start of every iteration (and once after the last),
// each device compares every owned slab's fresh data total against the
// totals of its maintained halo. A fresh corruption therefore surfaces
// *before* the iteration's updates consume the data, so recovery is a
// slab-local locate-and-correct on the owning device — no update
// reversal, no diskless panel checkpoint, no re-execution, and no data
// movement on any other device. The per-iteration sweep reads each
// slab once (O(n²/K) per device), the price of trading the legacy
// reverse/re-execute machinery for in-place correction.
//
// Determinism: the data-path kernels are the hybrid pool schedule's
// own (the halo rides as padding rows/columns that never feed a
// data element), so a clean run produces H, Q, and tau bit-identical to
// the plain multi-device hybrid reduction — and hence bit-identical at
// every device count.
package ft

import (
	"errors"
	"fmt"

	"repro/internal/blas"
	"repro/internal/devpool"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// multiReducer is the multi-device fault-tolerant reduction: the run
// shell plus the hybrid.PoolGuard that protects the pool schedule.
type multiReducer struct {
	run
	pool *devpool.Pool
	sh   *devpool.Shard

	// yHost is (n+1)×nb: rows 0..n-1 hold Y, row n the Yce checksum row.
	yHost *matrix.Matrix
	tHost *matrix.Matrix

	// Per-device detection staging: dChk[d] collects one column per
	// owned slab — fresh data total, maintained checksum-column total,
	// maintained checksum-row total — and chkHost[d] receives it in a
	// single transfer per device. colSums is the totals' column-sum
	// scratch (Real mode only): slab s owns the Cols+1 entries from
	// Start+s, so concurrent slabs never share one.
	dChk    []*gpu.Matrix
	chkHost []*matrix.Matrix
	colSums []float64

	// Under the fused substrate the panel slab's halo is refreshed
	// incrementally: finCol (n×1, on the slab's owner finDev)
	// accumulates the row sums of the slab's frozen-column prefix —
	// columns left of the current panel, which no later iteration
	// touches — so maintenance only re-reads the columns the iteration
	// actually changed. finSlab is the slab the accumulator belongs to
	// (-1: none yet).
	finCol  *gpu.Matrix
	finDev  *gpu.Device
	finSlab int

	// fsKills holds the armed device kills (failstop.go), keyed by kill
	// point; lossAt and lossIter are the modeled instant and iteration of
	// the loss that ended the attempt.
	fsKills  map[string]int
	lossAt   float64
	lossIter int

	// Detection-sweep scratch, reused at every boundary so a sweep
	// allocates nothing: the per-device verdict transfers and the flagged
	// slabs (detectSweep's result, valid until the next sweep).
	sweep []sweepBatch
	bad   []int
}

// sweepBatch is one device's detection-totals transfer.
type sweepBatch struct {
	ev sim.Event
	d  int
}

// pokeH adds delta to the trailing-matrix element at global (row, col),
// routed to the owning slab (IterCtx.PokeH on the multi path).
func (r *multiReducer) pokeH(row, col int, delta float64) {
	s := r.sh.Part.SlabOf(col)
	r.sh.Owner(s).Poke(r.sh.SlabM[s], row, col-r.sh.Part.Slabs[s].Start, delta)
}

// flipBitH flips one bit of the element at global (row, col) on its
// owning slab, returning the applied delta (0 in cost-only mode).
func (r *multiReducer) flipBitH(row, col int, bit uint) float64 {
	s := r.sh.Part.SlabOf(col)
	m := r.sh.SlabM[s]
	lc := col - r.sh.Part.Slabs[s].Start
	old := r.sh.Owner(s).FlipBit(m, row, lc, bit)
	if r.pool.Mode == gpu.Real {
		return m.At(row, lc) - old
	}
	return 0
}

// reduceMulti is the multi-device body of Reduce, selected when
// Options.Devices is non-empty: hybrid's pool schedule with this
// reducer as its guard. An attempt that ends in a device loss releases
// its device state, then the reduction runs again from a on the
// survivors.
func reduceMulti(a *matrix.Matrix, opt Options, fused bool) (*Result, error) {
	pool := devpool.Wrap(opt.Devices)
	if opt.Obs != nil {
		pool.SetObs(opt.Obs)
	}
	pool.SetJob(opt.Trace.JobID())
	sp := opt.Trace.Span("ft.reduce_multi", opt.Trace.ParentSpan())
	defer opt.Trace.EndSpan(sp)
	pool.SetContext(opt.Ctx)
	pool.StartAt(opt.startAt)

	r := &multiReducer{
		run:     newRun(a, opt, hybrid.PoolLane(pool), pool.Params, fused),
		pool:    pool,
		finSlab: -1,
	}
	err := r.attempt(a)
	if errors.Is(err, errDeviceLost) {
		return r.restart(a)
	}
	return r.res, err
}

// attempt runs the reduction once on the pool, freeing every device
// allocation before it returns.
func (r *multiReducer) attempt(a *matrix.Matrix) error {
	pool := r.pool
	n, nb := r.n, r.nb
	if n <= 1 {
		return nil
	}
	defer r.fuse(pool.Devices)()
	defer func() {
		if r.finCol != nil {
			r.finDev.Free(r.finCol)
		}
	}()

	pool.SetPhase("setup")
	sh := devpool.NewShard(pool, n, nb, 1)
	defer sh.Free()
	r.sh = sh
	defer r.sweepSetup()()

	// τ's ‖A‖₁ pass runs on the host while the upload is in flight.
	sh.Upload(r.hostA)
	r.threshold(a)
	pool.SetPhase("encode")
	for s := range sh.Part.Slabs {
		r.encodeSlab(s)
	}
	r.yHost = pool.Mode.HostMatrix(n+1, nb)
	r.tHost = pool.Mode.HostMatrix(nb, nb)

	if _, err := (hybrid.PoolRun{
		Shard: sh, HostA: r.hostA, Y: r.yHost, T: r.tHost, Tau: r.tau,
		NB: nb, Lookahead: r.la, Guard: r,
	}).Run(); err != nil {
		return err
	}
	if err := r.checkFused(pool.Devices); err != nil {
		return err
	}
	r.res.SetTiming(pool.Elapsed())
	return nil
}

// sweepSetup allocates the per-device detection staging (dChk on each
// participating device, chkHost on the host), one column per owned slab,
// and returns the function that frees it.
func (r *multiReducer) sweepSetup() func() {
	pool, sh := r.pool, r.sh
	maxSlabs := sh.Part.MaxSlabsPerOwner(pool.K())
	r.dChk = make([]*gpu.Matrix, pool.K())
	r.chkHost = make([]*matrix.Matrix, pool.K())
	for d, dev := range pool.Devices {
		if len(sh.DevSlabs[d]) == 0 {
			continue
		}
		r.dChk[d] = dev.Alloc(3, maxSlabs)
		r.chkHost[d] = pool.Mode.HostMatrix(3, maxSlabs)
	}
	if pool.Mode == gpu.Real {
		r.colSums = make([]float64, r.n+len(sh.Part.Slabs))
	}
	return func() {
		for d, dev := range pool.Devices {
			if r.dChk[d] != nil {
				dev.Free(r.dChk[d])
			}
		}
	}
}

// Boundary is the guard's iteration-boundary point: the injection hook,
// the boundary- and panel-point device losses, and the boundary check.
func (r *multiReducer) Boundary(iter, p, k, ib int) error {
	if r.opt.Hook != nil {
		r.opt.Hook.BeforeIteration(&IterCtx{
			Host: r.hostA,
			Iter: iter, Panel: p, NB: ib, N: r.n,
			multi: r,
		})
	}
	// A boundary-point device loss strikes here, before the check.
	if err := r.fsKillAt(killBoundary, iter); err != nil {
		return err
	}
	// Boundary check: a fault injected between iterations is caught
	// here, before this iteration's updates consume the data.
	if err := r.checkAll(iter, p); err != nil {
		return err
	}
	// A panel-point loss strikes as the panel offload begins: after the
	// boundary sweep, before PanelD2H reads the panel slab.
	return r.fsKillAt(killPanel, iter)
}

// AfterRight is where an update-point loss strikes: mid trailing
// update, between the right and the left update.
func (r *multiReducer) AfterRight(iter, p, k, ib int) error {
	return r.fsKillAt(killUpdate, iter)
}

// AfterLeft maintains the panel slab's halo, then the Q checksums.
// The panel slab was updated data-only (its columns were being
// rewritten by the host factorization); its halo is refreshed from the
// final data so the next boundary check sees it consistent. The fused
// substrate verifies every update kernel's output per call, so its
// maintenance pass skips the slab's frozen-column prefix and re-reads
// only what this iteration changed. The panel's Householder vectors are
// folded into the Q checksums once the iteration's device work is
// issued, on the CPU that then waits for the next panel — and before
// the next boundary's injection hook can strike the host's Q store.
func (r *multiReducer) AfterLeft(p, ib int) {
	r.pool.SetPhase("checksum_maintenance")
	if r.fused {
		r.refreshPanelSlab(p, ib)
	} else {
		r.encodeSlab(r.sh.Part.SlabOf(p))
	}
	r.absorbQ(p, ib)
}

// Finish runs the final boundary check, which covers the last
// iteration's updates, then verifies and repairs the host-side
// Householder storage before the gather: the gather overwrites it with
// the halo-protected device slabs, so this pass is what reports
// host-only (Area 3) hits.
func (r *multiReducer) Finish(iters, p int) error {
	r.res.BlockedIters = iters
	if err := r.checkAll(iters, p); err != nil {
		return err
	}
	return r.verifyQ(p)
}

// encodeSlab (re)computes slab s's checksum halo from its data on the
// owning device: the checksum column (row sums of the data columns),
// then the checksum row including the grand-total corner (column sums
// over data columns plus the fresh checksum column).
func (r *multiReducer) encodeSlab(s int) {
	sh := r.sh
	sl := sh.Part.Slabs[s]
	dev := sh.Owner(s)
	r.pool.Issue(dev)
	e := dev.RowSums(sh.SlabM[s], 0, 0, r.n, sl.Cols, sh.SlabM[s], 0, sl.Cols, sh.Last[s])
	e = dev.ColSums(sh.SlabM[s], 0, 0, r.n, sl.Cols+1, sh.SlabM[s], r.n, 0, e)
	sh.Last[s] = e
}

// refreshPanelSlab is the fused-substrate replacement for the panel
// slab's end-of-iteration encodeSlab. Columns left of the panel are
// frozen — no later iteration writes them — and their row sums are
// carried in the finCol accumulator, so the refresh reads only the
// columns this iteration changed ([p, slab end)). One fused kernel
// (encodeSlab needs two, and per-kernel launch latency dominates these
// bandwidth-bound sweeps) produces everything in a single pass: the
// changed columns' sums rewrite the checksum-row segment (frozen
// entries keep their last written values, which still match the frozen
// data), their row sums merge with the prefix into the checksum column,
// the grand total lands in the corner, and the newly finished panel
// columns fold into the prefix for the next iteration. The prefix
// accumulates column-by-column in ascending order, exactly the order a
// from-scratch rebuild uses. The accumulator only ever feeds the halo,
// never a data element, so H and tau stay bit-identical to the swept
// substrate; the halo's rounding drift against a full re-encode is
// O(ε·‖A‖), far below τ.
func (r *multiReducer) refreshPanelSlab(p, ib int) {
	sh := r.sh
	s := sh.Part.SlabOf(p)
	sl := sh.Part.Slabs[s]
	dev := sh.Owner(s)
	m := sh.SlabM[s]
	n := r.n
	cols := sl.Cols
	lp0 := p - sl.Start
	pp := r.pool.Params
	r.pool.Issue(dev)

	if r.finSlab != s {
		// First panel of this slab: build the accumulator on the owning
		// device from the slab's frozen columns.
		if r.finCol != nil {
			r.finDev.Free(r.finCol)
		}
		r.finCol = dev.Alloc(n, 1)
		r.finDev = dev
		r.finSlab = s
		fin := r.finCol
		sh.Last[s] = dev.Custom(pp.GemvDevice(n, lp0+1), func() {
			for i := 0; i < n; i++ {
				fin.Data[i] = 0
			}
			for j := 0; j < lp0; j++ {
				col := m.Data[j*m.Stride : j*m.Stride+n]
				for i, v := range col {
					fin.Data[i] += v
				}
			}
		}, sh.Last[s])
	}

	// One launch; bandwidth for the changed columns plus the checksum
	// column and prefix traffic (3 n-vectors).
	fin := r.finCol
	cost := pp.KernelLaunchSec + 8*float64(n)*float64(cols-lp0+3)/(pp.GPUBandwidthGBps*1e9)
	sh.Last[s] = dev.Custom(cost, func() {
		chk := m.Data[cols*m.Stride : cols*m.Stride+n]
		copy(chk, fin.Data[:n])
		// Each changed column's sum adds left to right, the order encode
		// and location use, so a clean column leaves no residual; the
		// prefix update rides the same pass.
		for j := lp0; j < cols; j++ {
			col := m.Data[j*m.Stride : j*m.Stride+n]
			chk := chk[:len(col)]
			cs := 0.0
			if j < lp0+ib {
				fin := fin.Data[:len(col)]
				for i, v := range col {
					cs += v
					chk[i] += v
					fin[i] += v
				}
			} else {
				for i, v := range col {
					cs += v
					chk[i] += v
				}
			}
			m.Data[j*m.Stride+n] = cs
		}
		corner := 0.0
		for _, v := range chk {
			corner += v
		}
		m.Data[cols*m.Stride+n] = corner
	}, sh.Last[s])
}

// slabTotals computes slab s's detection totals on device memory — the
// fresh grand total of the data region and the totals of the maintained
// halo — into column pos of the staging block dchk (a kernel body). The
// data columns and the checksum column are summed by blas.ColSums into
// the slab's own stretch of colSums, so slabs may run concurrently.
func (r *multiReducer) slabTotals(s, pos int, dchk *gpu.Matrix) {
	m := r.sh.SlabM[s]
	n := r.n
	sl := r.sh.Part.Slabs[s]
	sums := r.colSums[sl.Start+s : sl.End()+s+1]
	blas.ColSums(n, sl.Cols+1, m.Data, m.Stride, sums)
	td, sce := 0.0, 0.0
	for j := 0; j < sl.Cols; j++ {
		td += sums[j]
		sce += m.Data[j*m.Stride+n]
	}
	dchk.Data[pos*dchk.Stride+0] = td
	dchk.Data[pos*dchk.Stride+1] = sums[sl.Cols]
	dchk.Data[pos*dchk.Stride+2] = sce
}

// totalsKernel issues one detection kernel on device d over the given
// owned slabs, their totals landing in that order in the device's
// staging block: a segmented sweep, one launch however many slabs. The
// slabs' totals are sharded over the BLAS worker pool; each writes only
// its own staging column, so the totals are the same at any
// blas.SetMaxProcs.
func (r *multiReducer) totalsKernel(d int, slabs []int) sim.Event {
	sh := r.sh
	dev := r.pool.Devices[d]
	dchk := r.dChk[d]
	cols := 0
	var dep sim.Event
	for _, s := range slabs {
		cols += sh.Part.Slabs[s].Cols
		dep = dev.Join(dep, sh.Last[s])
	}
	kg := dev.Custom(r.pool.Params.GemvDevice(r.n, cols), func() {
		blas.ParallelFor(len(slabs), func(pos int) { r.slabTotals(slabs[pos], pos, dchk) })
	}, dep)
	for _, s := range slabs {
		sh.Last[s] = kg
	}
	return kg
}

// slabMismatch applies the detection rule to one staged totals column,
// folding its gap into the run's.
func (r *multiReducer) slabMismatch(st *matrix.Matrix, pos int) bool {
	td := st.At(0, pos)
	gap := worst(0, td-st.At(1, pos), td-st.At(2, pos))
	r.gap = worst(r.gap, gap)
	return exceeds(gap, r.tauDet)
}

// detectSweep runs one pool-wide boundary check: every device computes
// its owned slabs' totals in one segmented kernel and returns them in a
// single transfer; the host flags mismatching slabs. In cost-only mode
// the data does not exist to compare, so the injection hook drives the
// branch and the mismatch is attributed to the panel slab (as the legacy
// path does).
func (r *multiReducer) detectSweep(iter, p int) []int {
	pool := r.pool
	sh := r.sh
	// Every device sweeps all its owned slabs (sh.DevSlabs[d], whose
	// totals land in that order in its staging block), so a batch is just
	// the device and its transfer's completion.
	batches := r.sweep[:0]
	for d, dev := range pool.Devices {
		owned := sh.DevSlabs[d]
		if len(owned) == 0 {
			continue
		}
		pool.Issue(dev)
		kg := r.totalsKernel(d, owned)
		var ev sim.Event
		if r.la {
			// Lookahead: the verdict rides the compute stream's tail
			// (device-mapped read), naturally behind the update kernels
			// that produce the totals, without occupying the copy engine —
			// an async copy depending on the whole remainder would make
			// the next panel offload queue behind it.
			ev = dev.D2HTail(r.chkHost[d].View(0, 0, 3, len(owned)), r.dChk[d], 0, 0, kg)
		} else {
			ev = dev.D2HAsync(r.chkHost[d].View(0, 0, 3, len(owned)), r.dChk[d], 0, 0, kg)
		}
		batches = append(batches, sweepBatch{ev: ev, d: d})
	}
	r.sweep = batches
	if !r.la {
		for _, b := range batches {
			pool.Wait(b.ev)
		}
	}

	r.gap = 0
	bad := r.bad[:0]
	if pool.Mode == gpu.CostOnly {
		if r.opt.Hook != nil && r.opt.Hook.ConsumePendingH() > 0 {
			bad = append(bad, sh.Part.SlabOf(p))
		}
	} else {
		if r.opt.Hook != nil {
			r.opt.Hook.ConsumePendingH() // keep hook state consistent
		}
		for _, b := range batches {
			for pos, s := range sh.DevSlabs[b.d] {
				if r.slabMismatch(r.chkHost[b.d], pos) {
					bad = append(bad, s)
				}
			}
		}
	}
	r.bad = bad
	if r.la && len(bad) > 0 {
		// Optimistic clock: the staged totals were produced eagerly in
		// program order, so a clean sweep never blocks the host on the
		// verdict — detection cost is charged on the compute streams and
		// the boundary stays eager. Only a mismatch pays the
		// synchronization, because recovery must observe the verdict.
		for _, b := range batches {
			pool.Wait(b.ev)
		}
	}
	r.checked(iter, r.gap, len(bad) > 0)
	return bad
}

// recheckSlab re-runs the detection for a single slab after a
// correction attempt.
func (r *multiReducer) recheckSlab(iter, s int) bool {
	pool := r.pool
	if pool.Mode == gpu.CostOnly {
		// The hook's pending injection was consumed; a re-check is clean.
		return false
	}
	sh := r.sh
	d := sh.Part.Slabs[s].Owner
	dev := sh.Owner(s)
	pool.Issue(dev)
	kg := r.totalsKernel(d, []int{s})
	pool.Wait(dev.D2HAsync(r.chkHost[d].View(0, 0, 3, 1), r.dChk[d], 0, 0, kg))
	r.gap = 0
	mismatch := r.slabMismatch(r.chkHost[d], 0)
	return r.checked(iter, r.gap, mismatch)
}

// checkAll runs one boundary check and heals every flagged slab in
// place on its owner (the shared recovery path, repair.go), re-checking
// it with the one-kernel totals check after each repair.
func (r *multiReducer) checkAll(iter, p int) error {
	pool := r.pool
	prev := pool.SetPhase("detect")
	defer pool.SetPhase(prev)
	for _, s := range r.detectSweep(iter, p) {
		// The comparison is plain — no Hessenberg-aware split: finished
		// columns keep whole-column sums, their reflector rows included,
		// because they stay device-resident until the final gather.
		sl := r.sh.Part.Slabs[s]
		b := &bordered{
			dev: r.sh.Owner(s), m: r.sh.SlabM[s], n: r.n, cols: sl.Cols, col0: sl.Start,
			last: &r.sh.Last[s], data: &r.sh.Data[s],
			where: fmt.Sprintf("slab %d: ", s), flagged: true,
		}
		dev := b.dev.Name()
		r.record(obs.KindDetection, iter, r.gap, fmt.Sprintf("slab %d on %s", s, dev), dev)
		err := r.heal(iter, b, "recovery", func(int) bool {
			// A slab repair is the pool's recovery: no reversal and no
			// re-execution follow it.
			r.record(obs.KindRecovery, iter, 0, "slab repair", dev)
			if !r.recheckSlab(iter, s) {
				return false
			}
			r.record(obs.KindDetection, iter, r.gap, fmt.Sprintf("slab %d re-check on %s", s, dev), dev)
			return true
		})
		if err != nil {
			return fmt.Errorf("slab %d: %w", s, err)
		}
	}
	return nil
}
