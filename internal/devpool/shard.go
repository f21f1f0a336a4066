package devpool

import (
	"repro/internal/blas"
	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// Shard is the block-column-sharded trailing-update engine shared by the
// multi-device hybrid and fault-tolerant reductions. Each slab of the
// fixed partition lives on its owner device for the whole factorization;
// the panel products (V expanded to dense form, T, and the full Y) are
// broadcast to every device each iteration, and the only host-side
// synchronization points are the per-column panel GEMV partials and the
// Y-top AllReduce at panel boundaries.
//
// Storage and launches: each device holds its slabs in one
// column-concatenated allocation, in ascending slab order, so the
// trailing columns a round touches are one contiguous range of it. Every
// round is one launch per device (or a small constant number, never one
// per slab): the right and left updates are single GEMM/TRMM chains over
// the device's whole range, while the panel GEMV, the Y-top product and
// the FT detection sweep are segmented kernels that still write one
// partial per slab. SlabM[s] is a view into the allocation, so encoding,
// detection and recovery keep the slab as their unit.
//
// With Pad == 1 every slab carries an ABFT halo — checksum column
// Cols (row sums of the slab's data columns, stored right after them)
// and checksum row N (column sums of the data rows, plus the
// grand-total corner) — and the right and left updates maintain the halo
// *through* the update on the owning device, so detection and correction
// stay slab-local. In the right update a halo column rides the device's
// GEMM: its row of the gathered operand is the column sums of the Vexp
// rows of its slab. The panel slab is the exception: its columns are
// rewritten by the host factorization, so it is re-encoded after the
// updates (see the ft package) and whatever they wrote to its halo is
// discarded.
//
// Determinism: every cross-slab contraction is returned to the host as
// per-slab partials and combined there in ascending slab order, and an
// update's per-element arithmetic does not depend on how many columns
// its kernel spans, so the results are bit-identical for every device
// count (see the package comment).
type Shard struct {
	Pool *Pool
	Part Partition
	N    int
	NB   int
	// Pad is 1 when slabs carry the checksum halo, else 0.
	Pad int

	// SlabM[s] is slab s's (N+Pad) × (Cols+Pad) view into its owner's
	// storage. Last[s] is the most recent device event touching it, Data[s]
	// the most recent one writing its data region (an upload, an update
	// or a repair): an operation that only reads the data waits on Data,
	// so the halo's readers and writers never hold it up.
	SlabM []*gpu.Matrix
	Last  []sim.Event
	Data  []sim.Event

	// DevSlabs[d] lists the slab indices owned by device d, ascending.
	DevSlabs [][]int

	// store[d] is device d's slab storage: its slabs side by side in
	// DevSlabs order, each followed by its halo column; off[s] is slab
	// s's first column there.
	store []*gpu.Matrix
	off   []int

	// Per-device broadcast buffers and workspaces.
	dVexp    []*gpu.Matrix // N × NB dense expanded V
	dYb      []*gpu.Matrix // (N+Pad) × NB broadcast Y (row N = Yce)
	dTb      []*gpu.Matrix // NB × NB
	dVcol    []*gpu.Matrix // N × 1 panel-GEMV input
	dYpart   []*gpu.Matrix // N × maxSlabs panel-GEMV partials
	dWide    []*gpu.Matrix // (N+Pad) × maxSlabs·NB Y-top partials
	dBg      []*gpu.Matrix // storage width × NB gathered right-update operand
	dSbuf    []*gpu.Matrix // NB × storage width left-update intermediate
	dVsumRow []*gpu.Matrix // 1 × NB global V column sums (row layout)

	// Broadcast completion events, per device, refreshed each iteration.
	evVexp, evT, evY []sim.Event
	lastGemv         []sim.Event
	// vsumHave[d] is set once device d has the iteration's global V
	// column sums in dVsumRow (see leftApply).
	vsumHave []bool

	// Dispatch and combine scratch, reused so a round allocates nothing:
	// segs[d] holds device d's segments of the current segmented kernel,
	// pos[s] the column (in NB-blocks for Y-top) of slab s's partial in
	// its owner's staging block for the current round (-1: no partial),
	// pending the round's partial transfers, and srcs the combine's
	// partial columns in ascending slab order.
	segs    [][]gpu.Seg
	pos     []int
	pending []sim.Event
	srcs    [][]float64

	// Lookahead split state. PriorityUpdate applies the full right+left
	// update chain to just the next panel's columns ahead of everything
	// else; priSlab/priEnd mark those columns so RightUpdate/LeftUpdate
	// skip them for the rest of the iteration (priSlab is -1 when no
	// split is active). nextPanelSlab/nextPanelEv carry the priority
	// chain's completion into the next iteration, where PanelD2H starts
	// the panel offload there instead of after the whole trailing update.
	priSlab, priEnd int
	nextPanelSlab   int
	nextPanelEv     sim.Event

	// Host staging.
	stageCol  []*matrix.Matrix // per device: N × maxSlabs
	stageWide []*matrix.Matrix // per device: (N+Pad) × maxSlabs·NB
	vexpHost  *matrix.Matrix   // N × NB
	ysum      *matrix.Matrix   // (N+Pad) × NB combine buffer
}

// NewShard partitions an n×n problem over the pool and allocates the
// per-device slab storage and workspaces. pad must be 0 (plain) or 1
// (checksum halo).
func NewShard(pool *Pool, n, nb, pad int) *Shard {
	pt := NewPartition(n, nb, pool.K())
	k := pool.K()
	sh := &Shard{Pool: pool, Part: pt, N: n, NB: nb, Pad: pad}
	sh.SlabM = make([]*gpu.Matrix, len(pt.Slabs))
	sh.Last = make([]sim.Event, len(pt.Slabs))
	sh.Data = make([]sim.Event, len(pt.Slabs))
	sh.off = make([]int, len(pt.Slabs))
	sh.pos = make([]int, len(pt.Slabs))
	sh.srcs = make([][]float64, 0, len(pt.Slabs))
	sh.DevSlabs = make([][]int, k)
	for _, s := range pt.Slabs {
		sh.DevSlabs[s.Owner] = append(sh.DevSlabs[s.Owner], s.Index)
	}
	mk := func() []*gpu.Matrix { return make([]*gpu.Matrix, k) }
	sh.store = mk()
	sh.dVexp, sh.dYb, sh.dTb = mk(), mk(), mk()
	sh.dVcol, sh.dYpart, sh.dWide = mk(), mk(), mk()
	sh.dBg, sh.dSbuf, sh.dVsumRow = mk(), mk(), mk()
	sh.segs = make([][]gpu.Seg, k)
	sh.evVexp = make([]sim.Event, k)
	sh.evT = make([]sim.Event, k)
	sh.evY = make([]sim.Event, k)
	sh.lastGemv = make([]sim.Event, k)
	sh.priSlab = -1
	sh.nextPanelSlab = -1
	sh.vsumHave = make([]bool, k)
	sh.stageCol = make([]*matrix.Matrix, k)
	sh.stageWide = make([]*matrix.Matrix, k)
	maxSlabs := pt.MaxSlabsPerOwner(k)
	for d, dev := range pool.Devices {
		if len(sh.DevSlabs[d]) == 0 {
			continue
		}
		// The device's slabs side by side, each followed by its halo
		// column, then its workspaces.
		w := 0
		for _, s := range sh.DevSlabs[d] {
			sh.off[s] = w
			w += pt.Slabs[s].Cols + pad
		}
		sh.store[d] = dev.Alloc(n+pad, w)
		for _, s := range sh.DevSlabs[d] {
			sh.SlabM[s] = sh.store[d].View(0, sh.off[s], n+pad, pt.Slabs[s].Cols+pad)
		}
		sh.dVexp[d] = dev.Alloc(n, nb)
		sh.dYb[d] = dev.Alloc(n+pad, nb)
		sh.dTb[d] = dev.Alloc(nb, nb)
		sh.dVcol[d] = dev.Alloc(n, 1)
		sh.dYpart[d] = dev.Alloc(n, maxSlabs)
		sh.dWide[d] = dev.Alloc(n+pad, maxSlabs*nb)
		sh.dBg[d] = dev.Alloc(w, nb)
		sh.dSbuf[d] = dev.Alloc(nb, w)
		if pad > 0 {
			sh.dVsumRow[d] = dev.Alloc(1, nb)
		}
		sh.segs[d] = make([]gpu.Seg, 0, len(sh.DevSlabs[d]))
		sh.stageCol[d] = pool.Mode.HostMatrix(n, maxSlabs)
		sh.stageWide[d] = pool.Mode.HostMatrix(n+pad, maxSlabs*nb)
	}
	sh.vexpHost = pool.Mode.HostMatrix(n, nb)
	sh.ysum = pool.Mode.HostMatrix(n+pad, nb)
	return sh
}

// Free releases all device allocations of the shard.
func (sh *Shard) Free() {
	for d, dev := range sh.Pool.Devices {
		for _, m := range []*gpu.Matrix{sh.store[d], sh.dVexp[d], sh.dYb[d], sh.dTb[d], sh.dVcol[d],
			sh.dYpart[d], sh.dWide[d], sh.dBg[d], sh.dSbuf[d], sh.dVsumRow[d]} {
			if m != nil {
				dev.Free(m)
			}
		}
	}
}

// Owner returns the device owning slab s.
func (sh *Shard) Owner(s int) *gpu.Device {
	return sh.Pool.Devices[sh.Part.Slabs[s].Owner]
}

// Upload transfers the initial matrix into the slabs (data region only;
// the ft path encodes the checksum halo afterwards).
func (sh *Shard) Upload(hostA *matrix.Matrix) {
	for _, s := range sh.Part.Slabs {
		dev := sh.Owner(s.Index)
		sh.Pool.Issue(dev)
		sh.wrote(s.Index, dev.H2DAsync(sh.SlabM[s.Index], 0, 0, hostA.View(0, s.Start, sh.N, s.Cols)))
	}
}

// wrote records e as the last event of slab s and its last data writer.
func (sh *Shard) wrote(s int, e sim.Event) {
	sh.Last[s] = e
	sh.Data[s] = e
}

// PanelD2H copies the lower part of the panel (rows k..n-1 of columns
// p..p+ib-1) from the owning slab to the host and waits for it. The copy
// waits for the slab's last data writer, not for the halo's readers and
// writers. When the previous iteration priority-updated exactly these
// columns, it depends only on that priority chain — the slab's remainder
// update can still be in flight on the compute stream (it touches
// disjoint columns), which is what lets the host factorize panel k+1
// under trailing update k.
func (sh *Shard) PanelD2H(hostA *matrix.Matrix, p, k, ib int) {
	ps := sh.Part.SlabOf(p)
	dev := sh.Owner(ps)
	sh.Pool.Issue(dev)
	dep := sh.Data[ps]
	if sh.nextPanelSlab == ps {
		dep = sh.nextPanelEv
		sh.nextPanelSlab = -1
	}
	e := dev.D2HAsync(hostA.View(k, p, sh.N-k, ib), sh.SlabM[ps], k, p-sh.Part.Slabs[ps].Start, dep)
	sh.Last[ps] = dev.Join(sh.Last[ps], e)
	sh.Pool.Wait(e)
}

// updRange returns slab s's overlap with global columns [lo, n) in local
// coordinates; ok is false when the slab has no columns in range.
func (sh *Shard) updRange(s, lo int) (local, cnt, global int, ok bool) {
	sl := sh.Part.Slabs[s]
	g := sl.Start
	if g < lo {
		g = lo
	}
	if g >= sl.End() {
		return 0, 0, 0, false
	}
	return g - sl.Start, sl.End() - g, g, true
}

// roundSegs collects device d's segments of a per-slab round over the
// trailing columns from `from` on — one per owned slab with columns
// there, in ascending order: the slab's storage columns (A), its first
// global column minus `from` (B: the row of an operand indexed by
// trailing column) and its width (N); C is the slab's partial position
// times stride. It records each slab's position in pos and returns the
// latest completion event over those slabs.
func (sh *Shard) roundSegs(d, from, stride int) ([]gpu.Seg, sim.Event) {
	segs := sh.segs[d][:0]
	dev := sh.Pool.Devices[d]
	var dep sim.Event
	for _, s := range sh.DevSlabs[d] {
		lo, cnt, g, ok := sh.updRange(s, from)
		if !ok {
			sh.pos[s] = -1
			continue
		}
		sh.pos[s] = len(segs)
		segs = append(segs, gpu.Seg{A: sh.off[s] + lo, B: g - from, N: cnt, C: len(segs) * stride})
		dep = dev.Join(dep, sh.Last[s])
	}
	sh.segs[d] = segs
	return segs, dep
}

// PanelGemvIssue starts the trailing-matrix part of panel column yCol's
// Y update, y(k:n-1) += A(k:n-1, p+ib:n-1)·v, sharded: each owner runs
// one segmented GEMV over its slabs, writing one partial per slab, and
// returns the partial block in a single transfer. The caller overlaps
// host work with the round trip and then calls PanelGemvCollect.
//
// With la the GEMVs run on each device's lookahead stream and do not wait
// for the previous iteration's remainder update: the slab contents they
// would see there are one trailing update stale, so each partial carries
// correction terms against the still-broadcast previous V, T and Y
// (w₁ = V_sᵀ·v and w₂ = (TᵀVᵀC)_s·v, then y_s += A_s·v − Y·w₁ − V·w₂ —
// the lookahead GEMM restructuring), folded into the same launch and
// charged as extra stream time. The eager arithmetic is issued after the
// remainder in program order, so the corrected partial equals the
// non-lookahead one and results stay bit-identical.
func (sh *Shard) PanelGemvIssue(hostA *matrix.Matrix, yCol, p, k, ib int, la bool) {
	n := sh.N
	pool := sh.Pool
	pp := pool.Params
	c := p + yCol
	vtail := hostA.View(p+ib, c, n-p-ib, 1)

	sh.pending = sh.pending[:0]
	for d, dev := range pool.Devices {
		segs, dep := sh.roundSegs(d, p+ib, 1)
		if len(segs) == 0 {
			continue
		}
		pool.Issue(dev)
		up := dev.H2DAsync(sh.dVcol[d], 0, 0, vtail, sh.lastGemv[d])
		var kg sim.Event
		if la {
			// Correction terms: w₁ₛ = V_sᵀ·v and w₂ₛ = S_sᵀ·v stream each
			// slab's (cnt×ib) operands alongside its partial, and
			// y_d −= Y·Σw₁ₛ + V·Σw₂ₛ streams both (n−k)×ib operands once
			// per device and column.
			extra := pp.GemvDevice(n-k, 2*ib) - pp.KernelLaunchSec
			for _, sg := range segs {
				extra += 2 * (pp.GemvDevice(sg.N, ib) - pp.KernelLaunchSec)
			}
			kg = dev.GemvSeg(dev.Lookahead, extra, n-k, 1, sh.store[d], k, sh.dVcol[d], 0, 0, sh.dYpart[d], 0, segs,
				up, sh.evVexp[d], sh.evY[d])
		} else {
			kg = dev.GemvSeg(dev.Compute, 0, n-k, 1, sh.store[d], k, sh.dVcol[d], 0, 0, sh.dYpart[d], 0, segs, up, dep)
		}
		for _, s := range sh.DevSlabs[d] {
			if sh.pos[s] < 0 {
				continue
			}
			if la {
				// The corrected read is an anti-dependency for this
				// iteration's updates of the slab, not a serialization
				// behind the previous remainder.
				sh.Last[s] = dev.Join(sh.Last[s], kg)
			} else {
				sh.Last[s] = kg
			}
		}
		ev := dev.D2HAsync(sh.stageCol[d].View(0, 0, n-k, len(segs)), sh.dYpart[d], 0, 0, kg)
		sh.lastGemv[d] = ev
		sh.pending = append(sh.pending, ev)
	}
}

// partials lists, in ascending slab order, the staged partial of every
// slab with one in the current round: column pos[s]·stride + j of its
// owner's staging block, from row 0.
func (sh *Shard) partials(stage []*matrix.Matrix, stride, j int) [][]float64 {
	srcs := sh.srcs[:0]
	for s, sl := range sh.Part.Slabs {
		if pos := sh.pos[s]; pos >= 0 {
			st := stage[sl.Owner]
			srcs = append(srcs, st.Data[(pos*stride+j)*st.Stride:])
		}
	}
	sh.srcs = srcs
	return srcs
}

// PanelGemvCollect waits for the partial blocks started by
// PanelGemvIssue and folds them into y column yCol in ascending slab
// order (the fixed evaluation tree that keeps results K-independent).
// It allocates nothing.
func (sh *Shard) PanelGemvCollect(y *matrix.Matrix, yCol, k int) {
	n := sh.N
	pool := sh.Pool
	pp := pool.Params
	for _, ev := range sh.pending {
		pool.Wait(ev)
	}
	nact := 0
	for _, pos := range sh.pos {
		if pos >= 0 {
			nact++
		}
	}
	// The combine is one fused pass — each partial and the destination
	// stream through memory once, instead of a full read+write of y per
	// slab — while the per-element addition order (ascending slab) is
	// exactly that of sequential AXPYs, so the evaluation tree is
	// unchanged.
	cost := float64(nact+2) / 2 * pp.VecHost(n-k)
	pool.HostOp(cost, func() {
		srcs := sh.partials(sh.stageCol, 1, 0)
		dst := y.Data[yCol*y.Stride+k : yCol*y.Stride+k+(n-k)]
		for r := range dst {
			acc := dst[r]
			for _, src := range srcs {
				acc += src[r]
			}
			dst[r] = acc
		}
	})
}

// Broadcast uploads the freshly factored panel back to its owner slab,
// expands V to dense form on the host, and broadcasts Vexp and T to
// every participating device.
func (sh *Shard) Broadcast(hostA, tHost *matrix.Matrix, p, k, ib int) {
	n := sh.N
	pool := sh.Pool
	pp := pool.Params

	for d := range sh.vsumHave {
		sh.vsumHave[d] = false
	}

	ps := sh.Part.SlabOf(p)
	pdev := sh.Owner(ps)
	pool.Issue(pdev)
	sh.wrote(ps, pdev.H2DAsync(sh.SlabM[ps], k, p-sh.Part.Slabs[ps].Start,
		hostA.View(k, p, n-k, ib), sh.Last[ps]))

	// Dense Vexp: row r pairs with trailing column k+r; unit diagonal,
	// zeros above, stored reflector entries below.
	vexp := sh.vexpHost
	pool.HostOp(pp.GemvHost(n-k, ib)/2, func() {
		for j := 0; j < ib; j++ {
			col := vexp.Data[j*vexp.Stride : j*vexp.Stride+(n-k)]
			for r := 0; r < j && r < n-k; r++ {
				col[r] = 0
			}
			if j < n-k {
				col[j] = 1
			}
			src := hostA.Data[(p+j)*hostA.Stride:]
			for r := j + 1; r < n-k; r++ {
				col[r] = src[k+r]
			}
		}
	})
	for d, dev := range pool.Devices {
		if len(sh.DevSlabs[d]) == 0 {
			continue
		}
		pool.Issue(dev)
		sh.evVexp[d] = dev.H2DAsync(sh.dVexp[d], 0, 0, vexp.View(0, 0, n-k, ib))
		sh.evT[d] = dev.H2DAsync(sh.dTb[d], 0, 0, tHost.View(0, 0, ib, ib))
	}
}

// YTop computes Y's top rows (and, with Pad, the Yce checksum row):
// per-slab partials of A(0:k-1, k:n-1)·Vexp — one split-K GEMM launch per
// device, the checksum-row partials riding it — are combined ascending
// on the host, the T factor is applied there, and the result is written
// into yHost rows 0..k-1 (and row n).
func (sh *Shard) YTop(yHost, tHost *matrix.Matrix, p, k, ib int) {
	n := sh.N
	pool := sh.Pool
	pp := pool.Params
	pad := sh.Pad

	sh.pending = sh.pending[:0]
	for d, dev := range pool.Devices {
		segs, dep := sh.roundSegs(d, k, sh.NB)
		if len(segs) == 0 {
			continue
		}
		pool.Issue(dev)
		var kg sim.Event
		if pad > 0 {
			// Checksum-row partials: (eᵀA_pre)_slab·Vexp — row n of each
			// slab holds the maintained column sums of A *before* this
			// panel's factorization, which is exactly what the Yce
			// identity needs. The panel slab must NOT be re-encoded
			// before this call: Broadcast only rewrites data rows, so its
			// pre-factorization checksum row is still in place.
			kg = dev.GemmSegRow(k, ib, 1, sh.store[d], 0, n, sh.dVexp[d], 0, 0, sh.dWide[d], 0, segs, sh.evVexp[d], dep)
		} else {
			kg = dev.GemmSeg(k, ib, 1, sh.store[d], 0, sh.dVexp[d], 0, 0, sh.dWide[d], 0, segs, sh.evVexp[d], dep)
		}
		for _, s := range sh.DevSlabs[d] {
			if sh.pos[s] >= 0 {
				sh.Last[s] = kg
			}
		}
		sh.pending = append(sh.pending, dev.D2HAsync(sh.stageWide[d].View(0, 0, k+pad, len(segs)*sh.NB), sh.dWide[d], 0, 0, kg))
	}
	for _, ev := range sh.pending {
		pool.Wait(ev)
	}
	cost := pp.GemmHost(k+pad, ib, ib)/2 + float64(len(sh.Part.Slabs))*pp.GemvHost(k+pad, ib)/2
	pool.HostOp(cost, func() {
		ys := sh.ysum
		for j := 0; j < ib; j++ {
			col := ys.Data[j*ys.Stride : j*ys.Stride+k+pad]
			for r := range col {
				col[r] = 0
			}
			for _, src := range sh.partials(sh.stageWide, sh.NB, j) {
				blas.Daxpy(k+pad, 1, src, 1, col, 1)
			}
		}
		// Apply T on the right: Y = (A·V)·T, including the ce row.
		blas.Dtrmm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, k+pad, ib, 1,
			tHost.Data, tHost.Stride, ys.Data, ys.Stride)
		for j := 0; j < ib; j++ {
			blas.Dcopy(k, ys.Data[j*ys.Stride:], 1, yHost.Data[j*yHost.Stride:], 1)
			if pad > 0 {
				yHost.Data[j*yHost.Stride+n] = ys.Data[j*ys.Stride+k]
			}
		}
	})
}

// BroadcastY uploads the assembled Y (rows 0..n-1 plus the Yce row with
// Pad) to every participating device.
func (sh *Shard) BroadcastY(yHost *matrix.Matrix, ib int) {
	for d, dev := range sh.Pool.Devices {
		if len(sh.DevSlabs[d]) == 0 {
			continue
		}
		sh.Pool.Issue(dev)
		sh.evY[d] = dev.H2DAsync(sh.dYb[d], 0, 0, yHost.View(0, 0, sh.N+sh.Pad, ib))
	}
}

// leftApply issues the left update's last kernel on device d, C −= V·S
// for the (n−k)×w block at storage column lo of c, with S in dSbuf.
// With Pad it carries the checksum row in the same launch, chkrow −=
// (eᵀV)·S: the global V column-sum vector eᵀV (1×ib, in dVsumRow) is
// formed by the first such launch of the iteration on the device, since
// the priority and remainder parts consume the same vector, and the
// later ones reuse it from the same stream.
func (sh *Shard) leftApply(d int, dev *gpu.Device, c *gpu.Matrix, lo, w, k, ib int, chk bool, deps ...sim.Event) sim.Event {
	n := sh.N
	if !chk {
		return dev.Gemm(blas.NoTrans, blas.NoTrans, n-k, w, ib, -1,
			sh.dVexp[d], 0, 0, sh.dSbuf[d], 0, 0, 1, c, k, lo, deps...)
	}
	fresh := !sh.vsumHave[d]
	sh.vsumHave[d] = true
	return dev.GemmChkRow(n-k, w, ib, -1, sh.dVexp[d], 0, 0, sh.dSbuf[d], 0, 0, 1, c, k, lo, n,
		sh.dVsumRow[d], fresh, deps...)
}

// PriorityUpdate applies the complete right+left trailing-update chain to
// just the next panel's columns [p+ib, p+ib+ib2) on their owning device,
// enqueued ahead of every remainder kernel — the depth-1 lookahead split.
// The checksum algebra splits the same way: when the priority columns sit
// in a non-panel halo slab, their checksum-row entries ride the priority
// chain (row n of the right GEMM, plus the left chkrow product restricted
// to those columns), while the slab's checksum column — one vector spanning
// every column of the slab — stays whole in the remainder. Per-element
// arithmetic is exactly the unsplit kernels' restricted to disjoint column
// ranges, so results are bit-identical to the non-lookahead schedule.
//
// RightUpdate/LeftUpdate skip the priority columns for the rest of this
// iteration, and the next iteration's PanelD2H starts at the recorded
// priority event instead of after the whole remainder.
func (sh *Shard) PriorityUpdate(p, k, ib, ib2 int) {
	n := sh.N
	pool := sh.Pool
	ps := sh.Part.SlabOf(p)
	nextP := p + ib
	ns := sh.Part.SlabOf(nextP)
	d := sh.Part.Slabs[ns].Owner
	dev := pool.Devices[d]
	lo := nextP - sh.Part.Slabs[ns].Start
	pool.Issue(dev)

	// Right: the Vexp rows pairing with columns [nextP, nextP+ib2) start
	// at row nextP−k — splitting the GEMM by output columns offsets the
	// transposed operand's rows by the same amount.
	chk := sh.Pad > 0 && ns != ps
	rows := n
	if chk {
		rows = n + 1 // checksum row rides as row n (Y's row n is Yce)
	}
	e := dev.Gemm(blas.NoTrans, blas.Trans, rows, ib2, ib, -1,
		sh.dYb[d], 0, 0, sh.dVexp[d], nextP-k, 0, 1, sh.SlabM[ns], 0, lo,
		sh.evVexp[d], sh.evY[d], sh.Last[ns])

	// Left: S = Tᵀ·Vᵀ·C over the priority columns only, then C −= V·S.
	e = dev.Gemm(blas.Trans, blas.NoTrans, ib, ib2, n-k, 1,
		sh.dVexp[d], 0, 0, sh.SlabM[ns], k, lo, 0, sh.dSbuf[d], 0, 0,
		sh.evVexp[d], e)
	e = dev.Trmm(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, ib, ib2, 1,
		sh.dTb[d], 0, 0, sh.dSbuf[d], 0, 0, sh.evT[d], e)
	e = sh.leftApply(d, dev, sh.SlabM[ns], lo, ib2, k, ib, chk, e)
	sh.wrote(ns, e)
	sh.priSlab, sh.priEnd = ns, nextP+ib2
	sh.nextPanelSlab, sh.nextPanelEv = ns, e
}

// span returns the storage columns [lo, hi) of device d that an update
// of the trailing columns from `from` on covers, for the iteration whose
// panel sits in slab ps: the data columns at or right of `from` plus the
// halo columns of their slabs, and the halo of a non-panel priority slab
// whose data columns the priority part already covered (its checksum
// column spans every column of the slab, so its update stays whole in
// the remainder). Each device stores its slabs in ascending order, so
// that is one contiguous range running to the end of the storage; lo ==
// hi when the device has nothing to update.
func (sh *Shard) span(d, from, ps int) (lo, hi int) {
	if sh.store[d] == nil {
		return 0, 0
	}
	hi = sh.store[d].Cols
	for _, s := range sh.DevSlabs[d] {
		sl := sh.Part.Slabs[s]
		switch {
		case sl.End() > from:
			return sh.off[s] + max(from-sl.Start, 0), hi
		case sh.Pad > 0 && s == sh.priSlab && s != ps:
			return sh.off[s] + sl.Cols, hi
		}
	}
	return hi, hi
}

// spanDep returns the latest completion event over device d's slabs with
// storage columns at or right of lo.
func (sh *Shard) spanDep(d, lo int) sim.Event {
	var e sim.Event
	for _, s := range sh.DevSlabs[d] {
		if sh.off[s]+sh.Part.Slabs[s].Cols+sh.Pad > lo {
			e = sh.Pool.Devices[d].Join(e, sh.Last[s])
		}
	}
	return e
}

// spanDone records e as the last event, and the last data writer, of
// device d's slabs with storage columns at or right of lo.
func (sh *Shard) spanDone(d, lo int, e sim.Event) {
	for _, s := range sh.DevSlabs[d] {
		if sh.off[s]+sh.Part.Slabs[s].Cols+sh.Pad > lo {
			sh.wrote(s, e)
		}
	}
}

// gather builds device d's right-update operand for storage columns
// [lo, hi) in one kernel: row j of dBg is the Vexp row pairing with
// storage column lo+j — row g−k for a data column of global index g — or,
// for a halo column, the column sums of the Vexp rows of its slab's
// columns from k on, so the checksum column rides the update GEMM.
func (sh *Shard) gather(d int, dev *gpu.Device, lo, hi, k, ib int) sim.Event {
	pp := sh.Pool.Params
	vexp, bg := sh.dVexp[d], sh.dBg[d]
	haloRows := 0
	for _, s := range sh.DevSlabs[d] {
		sl := sh.Part.Slabs[s]
		if h := sh.off[s] + sl.Cols; sh.Pad > 0 && h >= lo {
			haloRows += sl.End() - max(sl.Start, k)
		}
	}
	cost := pp.VecDevice((hi-lo)*ib) + pp.GemvDevice(haloRows, ib) - pp.KernelLaunchSec
	return dev.Custom(cost, func() {
		for _, s := range sh.DevSlabs[d] {
			sl := sh.Part.Slabs[s]
			for j := max(lo, sh.off[s]); j < sh.off[s]+sl.Cols; j++ {
				v := sl.Start + j - sh.off[s] - k
				for c := 0; c < ib; c++ {
					bg.Data[c*bg.Stride+j-lo] = vexp.Data[c*vexp.Stride+v]
				}
			}
			if h := sh.off[s] + sl.Cols; sh.Pad > 0 && h >= lo {
				v0 := max(sl.Start, k) - k
				for c := 0; c < ib; c++ {
					sum := 0.0
					for _, v := range vexp.Data[c*vexp.Stride+v0 : c*vexp.Stride+sl.End()-k] {
						sum += v
					}
					bg.Data[c*bg.Stride+h-lo] = sum
				}
			}
		}
	}, sh.evVexp[d])
}

// RightUpdate applies A := A − Y·Vexpᵀ to every slab's share of columns
// k..n-1 on its owner: one gather and one GEMM over the device's span
// (see span), rows 0..n-1 plus, with Pad, the checksum row, which rides
// as row n (Y's row n is Yce); halo columns ride through their gathered
// Vexp column sums. The panel slab's columns k..p+ib-1 are updated in
// rows 0..k-1 only (the lower rows hold the freshly uploaded V), by one
// more GEMM on its owner. Columns already covered by PriorityUpdate are
// outside the span.
func (sh *Shard) RightUpdate(p, k, ib int) {
	n := sh.N
	pool := sh.Pool
	ps := sh.Part.SlabOf(p)
	from := p + ib
	if sh.priSlab >= 0 {
		from = sh.priEnd
	}
	for d, dev := range pool.Devices {
		lo, hi := sh.span(d, from, ps)
		top := sh.Part.Slabs[ps].Owner == d && ib > 1
		if lo == hi && !top {
			continue
		}
		pool.Issue(dev)
		var e sim.Event
		if top {
			e = dev.Gemm(blas.NoTrans, blas.Trans, k, ib-1, ib, -1,
				sh.dYb[d], 0, 0, sh.dVexp[d], 0, 0, 1, sh.SlabM[ps], 0, k-sh.Part.Slabs[ps].Start,
				sh.evVexp[d], sh.evY[d], sh.Last[ps])
			sh.wrote(ps, e)
		}
		if lo == hi {
			continue
		}
		g := sh.gather(d, dev, lo, hi, k, ib)
		e = dev.Gemm(blas.NoTrans, blas.Trans, n+sh.Pad, hi-lo, ib, -1,
			sh.dYb[d], 0, 0, sh.dBg[d], 0, 0, 1, sh.store[d], 0, lo,
			g, sh.evY[d], sh.spanDep(d, lo), e)
		sh.spanDone(d, lo, e)
	}
}

// LeftUpdate applies A := (I − V·Tᵀ·Vᵀ)·A to every slab's share of the
// trailing columns p+ib..n-1 on its owner: S = Tᵀ·Vᵀ·C, its TRMM and
// C −= V·S each run once over the device's span (halo columns included —
// the halo transforms by the same operator), and with Pad the checksum
// row rides the last launch (see leftApply).
func (sh *Shard) LeftUpdate(p, k, ib int) {
	n := sh.N
	pool := sh.Pool
	ps := sh.Part.SlabOf(p)
	from := p + ib
	if sh.priSlab >= 0 {
		from = sh.priEnd
	}
	for d, dev := range pool.Devices {
		lo, hi := sh.span(d, from, ps)
		if lo == hi {
			continue
		}
		w := hi - lo
		pool.Issue(dev)
		e := dev.Gemm(blas.Trans, blas.NoTrans, ib, w, n-k, 1,
			sh.dVexp[d], 0, 0, sh.store[d], k, lo, 0, sh.dSbuf[d], 0, 0,
			sh.evVexp[d], sh.spanDep(d, lo))
		e = dev.Trmm(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, ib, w, 1,
			sh.dTb[d], 0, 0, sh.dSbuf[d], 0, 0, sh.evT[d], e)
		// The checksum row covers the halo columns' corners too.
		e = sh.leftApply(d, dev, sh.store[d], lo, w, k, ib, sh.Pad > 0, e)
		sh.spanDone(d, lo, e)
	}
	sh.priSlab = -1
}

// Gather copies every slab's full data region back to the host matrix
// and waits for all transfers. Each copy waits for its slab's last data
// writer only: the final check and halo upkeep read the data too, so
// they may still run. Because the device copies are authoritative for
// the entire matrix, the gather also heals any host-side corruption of
// already-finished columns.
func (sh *Shard) Gather(hostA *matrix.Matrix) {
	evs := sh.pending[:0]
	for _, s := range sh.Part.Slabs {
		dev := sh.Owner(s.Index)
		sh.Pool.Issue(dev)
		e := dev.D2HAsync(hostA.View(0, s.Start, sh.N, s.Cols), sh.SlabM[s.Index], 0, 0, sh.Data[s.Index])
		sh.Last[s.Index] = e
		evs = append(evs, e)
	}
	for _, e := range evs {
		sh.Pool.Wait(e)
	}
	sh.pending = evs
}
