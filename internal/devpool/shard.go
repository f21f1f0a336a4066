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
// With Pad == 1 every slab carries an ABFT halo — checksum column
// Cols (row sums of the slab's data columns) and checksum row N (column
// sums of the data rows, plus the grand-total corner) — and the right
// and left updates maintain the halo *through* the update on the owning
// device, so detection and correction stay slab-local. The panel slab is
// the exception: its columns are rewritten by the host factorization, so
// it is updated data-only and re-encoded (see the ft package).
//
// Determinism: every cross-slab contraction is returned to the host as
// per-slab partials and combined there in ascending slab order, so the
// results are bit-identical for every device count (see the package
// comment).
type Shard struct {
	Pool *Pool
	Part Partition
	N    int
	NB   int
	// Pad is 1 when slabs carry the checksum halo, else 0.
	Pad int

	// SlabM[s] is slab s's device matrix: (N+Pad) × (Cols+Pad) on the
	// owner device. Last[s] is the most recent device event touching it.
	SlabM []*gpu.Matrix
	Last  []sim.Event

	// DevSlabs[d] lists the slab indices owned by device d, ascending.
	DevSlabs [][]int

	// Per-device broadcast buffers and workspaces.
	dVexp    []*gpu.Matrix // N × NB dense expanded V
	dYb      []*gpu.Matrix // (N+Pad) × NB broadcast Y (row N = Yce)
	dTb      []*gpu.Matrix // NB × NB
	dVcol    []*gpu.Matrix // N × 1 panel-GEMV input
	dYpart   []*gpu.Matrix // N × maxSlabs panel-GEMV partials
	dWide    []*gpu.Matrix // (N+Pad) × maxSlabs·NB Y-top partials
	dSbuf    []*gpu.Matrix // NB × (Width+Pad) left-update intermediate
	dOnes    []*gpu.Matrix // N × 1 ones (checksum contractions)
	dVsumCol []*gpu.Matrix // NB × 1 per-slab V column sums
	dVsumRow []*gpu.Matrix // 1 × NB global V column sums (row layout)

	// Broadcast completion events, per device, refreshed each iteration.
	evVexp, evT, evY []sim.Event
	lastGemv         []sim.Event
	pendingGemv      []devBatch

	// Dispatch scratch, reused so issuing a round of kernels allocates
	// nothing: evs collects one device's kernel events, active[d] lists
	// device d's slabs in the current panel-GEMV or Y-top round (their
	// partial columns, in order), and ytop the Y-top round's transfers.
	evs    []sim.Event
	active [][]int
	ytop   []devBatch

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
	vsumReady       []sim.Event
	vsumHave        []bool

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
	sh.DevSlabs = make([][]int, k)
	for _, s := range pt.Slabs {
		sh.SlabM[s.Index] = pool.Devices[s.Owner].Alloc(n+pad, s.Cols+pad)
		sh.DevSlabs[s.Owner] = append(sh.DevSlabs[s.Owner], s.Index)
	}
	maxSlabs := pt.MaxSlabsPerOwner(k)
	mk := func() []*gpu.Matrix { return make([]*gpu.Matrix, k) }
	sh.dVexp, sh.dYb, sh.dTb = mk(), mk(), mk()
	sh.dVcol, sh.dYpart, sh.dWide, sh.dSbuf = mk(), mk(), mk(), mk()
	sh.dOnes, sh.dVsumCol, sh.dVsumRow = mk(), mk(), mk()
	sh.evVexp = make([]sim.Event, k)
	sh.evT = make([]sim.Event, k)
	sh.evY = make([]sim.Event, k)
	sh.lastGemv = make([]sim.Event, k)
	sh.priSlab = -1
	sh.nextPanelSlab = -1
	sh.vsumReady = make([]sim.Event, k)
	sh.vsumHave = make([]bool, k)
	sh.stageCol = make([]*matrix.Matrix, k)
	sh.stageWide = make([]*matrix.Matrix, k)
	sh.active = make([][]int, k)
	for d, dev := range pool.Devices {
		if len(sh.DevSlabs[d]) == 0 {
			continue
		}
		sh.dVexp[d] = dev.Alloc(n, nb)
		sh.dYb[d] = dev.Alloc(n+pad, nb)
		sh.dTb[d] = dev.Alloc(nb, nb)
		sh.dVcol[d] = dev.Alloc(n, 1)
		sh.dYpart[d] = dev.Alloc(n, maxSlabs)
		sh.dWide[d] = dev.Alloc(n+pad, maxSlabs*nb)
		sh.dSbuf[d] = dev.Alloc(nb, pt.Width+pad)
		sh.stageCol[d] = pool.Mode.HostMatrix(n, maxSlabs)
		sh.stageWide[d] = pool.Mode.HostMatrix(n+pad, maxSlabs*nb)
		if pad > 0 {
			sh.dOnes[d] = dev.Alloc(n, 1)
			sh.dVsumCol[d] = dev.Alloc(nb, 1)
			sh.dVsumRow[d] = dev.Alloc(1, nb)
			ones := sh.dOnes[d]
			dev.Custom(dev.Params.VecDevice(n), func() {
				for i := range ones.Data {
					ones.Data[i] = 1
				}
			})
		}
	}
	sh.vexpHost = pool.Mode.HostMatrix(n, nb)
	sh.ysum = pool.Mode.HostMatrix(n+pad, nb)
	return sh
}

// Reattach reallocates the device-resident state of pool slot d on the
// device now occupying it — fail-stop recovery, after Pool.ReplaceDevice
// swapped a spare into a dead device's slot. Slab storage is allocated
// empty (Parity.Reconstruct fills it); workspaces mirror NewShard. All
// of the slot's completion events reset to time zero — the spare starts
// with drained streams — and the cached V column sums are invalidated
// so the left update recomputes them from the rebroadcast V (bitwise
// identical: same input, same kernel).
func (sh *Shard) Reattach(d int) {
	dev := sh.Pool.Devices[d]
	n, nb, pad := sh.N, sh.NB, sh.Pad
	for _, s := range sh.DevSlabs[d] {
		sh.SlabM[s] = dev.Alloc(n+pad, sh.Part.Slabs[s].Cols+pad)
		sh.Last[s] = sim.Event{}
	}
	sh.evVexp[d], sh.evT[d], sh.evY[d] = sim.Event{}, sim.Event{}, sim.Event{}
	sh.lastGemv[d] = sim.Event{}
	sh.vsumReady[d] = sim.Event{}
	sh.vsumHave[d] = false
	if len(sh.DevSlabs[d]) == 0 {
		return
	}
	maxSlabs := sh.Part.MaxSlabsPerOwner(sh.Pool.K())
	sh.dVexp[d] = dev.Alloc(n, nb)
	sh.dYb[d] = dev.Alloc(n+pad, nb)
	sh.dTb[d] = dev.Alloc(nb, nb)
	sh.dVcol[d] = dev.Alloc(n, 1)
	sh.dYpart[d] = dev.Alloc(n, maxSlabs)
	sh.dWide[d] = dev.Alloc(n+pad, maxSlabs*nb)
	sh.dSbuf[d] = dev.Alloc(nb, sh.Part.Width+pad)
	if pad > 0 {
		sh.dOnes[d] = dev.Alloc(n, 1)
		sh.dVsumCol[d] = dev.Alloc(nb, 1)
		sh.dVsumRow[d] = dev.Alloc(1, nb)
		ones := sh.dOnes[d]
		dev.Custom(dev.Params.VecDevice(n), func() {
			for i := range ones.Data {
				ones.Data[i] = 1
			}
		})
	}
}

// Rebroadcast re-uploads the current iteration's host-resident operands
// (dense expanded V, T, and the assembled Y) to pool slot d. Used when
// a device is replaced mid-iteration: the broadcast values its
// predecessor held are gone, but the host still has every one of them,
// so the remaining update kernels read identical bits from the spare.
func (sh *Shard) Rebroadcast(d int, tHost, yHost *matrix.Matrix, k, ib int) {
	dev := sh.Pool.Devices[d]
	sh.Pool.Issue(dev)
	sh.evVexp[d] = dev.H2DAsync(sh.dVexp[d], 0, 0, sh.vexpHost.View(0, 0, sh.N-k, ib))
	sh.evT[d] = dev.H2DAsync(sh.dTb[d], 0, 0, tHost.View(0, 0, ib, ib))
	sh.evY[d] = dev.H2DAsync(sh.dYb[d], 0, 0, yHost.View(0, 0, sh.N+sh.Pad, ib))
	sh.vsumHave[d] = false
}

// Free releases all device allocations of the shard.
func (sh *Shard) Free() {
	for s, m := range sh.SlabM {
		sh.Pool.Devices[sh.Part.Slabs[s].Owner].Free(m)
	}
	for d, dev := range sh.Pool.Devices {
		for _, m := range []*gpu.Matrix{sh.dVexp[d], sh.dYb[d], sh.dTb[d], sh.dVcol[d],
			sh.dYpart[d], sh.dWide[d], sh.dSbuf[d], sh.dOnes[d], sh.dVsumCol[d], sh.dVsumRow[d]} {
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
		sh.Pool.Issue(sh.Owner(s.Index))
		sh.Last[s.Index] = sh.Owner(s.Index).H2DAsync(sh.SlabM[s.Index], 0, 0,
			hostA.View(0, s.Start, sh.N, s.Cols))
	}
}

// later merges two completion times: in the timeline model an event is
// purely an instant, so waiting on the later of two events waits on both.
func later(a, b sim.Event) sim.Event {
	if b.At > a.At {
		return b
	}
	return a
}

// PanelD2H copies the lower part of the panel (rows k..n-1 of columns
// p..p+ib-1) from the owning slab to the host and waits for it. When the
// previous iteration priority-updated exactly these columns, the copy
// depends only on that priority chain — the slab's remainder update can
// still be in flight on the compute stream (it touches disjoint columns),
// which is what lets the host factorize panel k+1 under trailing update k.
func (sh *Shard) PanelD2H(hostA *matrix.Matrix, p, k, ib int) {
	ps := sh.Part.SlabOf(p)
	dev := sh.Owner(ps)
	sh.Pool.Issue(dev)
	dep := sh.Last[ps]
	if sh.nextPanelSlab == ps {
		dep = sh.nextPanelEv
		sh.nextPanelSlab = -1
	}
	e := dev.D2HAsync(hostA.View(k, p, sh.N-k, ib), sh.SlabM[ps], k, p-sh.Part.Slabs[ps].Start, dep)
	sh.Last[ps] = later(sh.Last[ps], e)
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

// devBatch tracks one device's in-flight transfer of per-slab partials:
// its completion and the slabs whose partials it carries, in column order.
type devBatch struct {
	ev     sim.Event
	active []int
}

// PanelGemvIssue starts the trailing-matrix part of panel column yCol's
// Y update, y(k:n-1) += A(k:n-1, p+ib:n-1)·v, sharded: each owner runs
// one GEMV per slab and returns its partial block in a single transfer.
// The caller overlaps host work with the round trip and then calls
// PanelGemvCollect.
//
// With la the GEMVs run on each device's lookahead stream and do not wait
// for the previous iteration's remainder update: the slab contents they
// would see there are one trailing update stale, so each partial carries
// correction terms against the still-broadcast previous V, T and Y
// (w₁ = V_sᵀ·v and w₂ = (TᵀVᵀC)_s·v, then y_s += A_s·v − Y·w₁ − V·w₂ —
// the lookahead GEMM restructuring), charged as extra stream time. The
// eager arithmetic is issued after the remainder in program order, so the
// corrected partial equals the non-lookahead one and results stay
// bit-identical.
func (sh *Shard) PanelGemvIssue(hostA *matrix.Matrix, yCol, p, k, ib int, la bool) {
	n := sh.N
	pool := sh.Pool
	pp := pool.Params
	c := p + yCol
	vtail := hostA.View(p+ib, c, n-p-ib, 1)

	sh.pendingGemv = sh.pendingGemv[:0]
	for d, dev := range pool.Devices {
		kgs := sh.evs[:0]
		active := sh.active[d][:0]
		first := true
		var up sim.Event
		for _, s := range sh.DevSlabs[d] {
			lo, cnt, g, ok := sh.updRange(s, p+ib)
			if !ok {
				continue
			}
			if first {
				pool.Issue(dev)
				up = dev.H2DAsync(sh.dVcol[d], 0, 0, vtail, sh.lastGemv[d])
				first = false
			}
			var kg sim.Event
			if la {
				// Per-slab correction contraction: w₁ₛ = V_sᵀ·v and
				// w₂ₛ = S_sᵀ·v are small (cnt×ib) and fuse into the main
				// GEMV's pass over the slab (extra operand streaming, no
				// extra launch); applying Y·w₁ and V·w₂ happens once per
				// device below, not per slab.
				extra := 2 * (pp.GemvDevice(cnt, ib) - pp.KernelLaunchSec)
				kg = dev.GemvLA(blas.NoTrans, n-k, cnt, extra, 1, sh.SlabM[s], k, lo,
					sh.dVcol[d], g-(p+ib), 0, 0, sh.dYpart[d], 0, len(active),
					up, sh.evVexp[d], sh.evY[d])
				// The corrected read is an anti-dependency for this
				// iteration's updates of the slab, not a serialization
				// behind the previous remainder.
				sh.Last[s] = later(sh.Last[s], kg)
			} else {
				kg = dev.Gemv(blas.NoTrans, n-k, cnt, 1, sh.SlabM[s], k, lo,
					sh.dVcol[d], g-(p+ib), 0, 0, sh.dYpart[d], 0, len(active), up, sh.Last[s])
				sh.Last[s] = kg
			}
			kgs = append(kgs, kg)
			active = append(active, s)
		}
		sh.evs, sh.active[d] = kgs, active
		if len(active) == 0 {
			continue
		}
		if la {
			// Apply the summed corrections to the device's partials:
			// y_d −= Y·Σw₁ₛ + V·Σw₂ₛ — one fused kernel streaming both
			// (n−k)×ib operands, once per device and column.
			kgs = append(kgs[:0], dev.CustomLA(pp.GemvDevice(n-k, 2*ib), nil, kgs...))
		}
		ev := dev.D2HAsync(sh.stageCol[d].View(0, 0, n-k, len(active)), sh.dYpart[d], 0, 0, kgs...)
		sh.lastGemv[d] = ev
		sh.pendingGemv = append(sh.pendingGemv, devBatch{ev: ev, active: active})
	}
}

// PanelGemvCollect waits for the partial blocks started by
// PanelGemvIssue and folds them into y column yCol in ascending slab
// order (the fixed evaluation tree that keeps results K-independent).
func (sh *Shard) PanelGemvCollect(y *matrix.Matrix, yCol, k int) {
	n := sh.N
	pool := sh.Pool
	pp := pool.Params
	batches := sh.pendingGemv
	for _, b := range batches {
		pool.Wait(b.ev)
	}
	// The partial for slab s sits in column pos(s) of its owner's
	// staging block. The combine is one fused pass — each partial and
	// the destination stream through memory once, instead of a full
	// read+write of y per slab — while the per-element addition order
	// (ascending slab) is exactly that of sequential AXPYs, so the
	// evaluation tree is unchanged.
	nact := 0
	for _, b := range batches {
		nact += len(b.active)
	}
	cost := float64(nact+2) / 2 * pp.VecHost(n-k)
	pool.HostOp(cost, func() {
		bySlab := map[int][]float64{}
		for _, b := range batches {
			d := sh.Part.Slabs[b.active[0]].Owner
			for pos, s := range b.active {
				bySlab[s] = sh.stageCol[d].Data[pos*sh.stageCol[d].Stride:]
			}
		}
		srcs := make([][]float64, 0, nact)
		for s := range sh.Part.Slabs {
			if src, ok := bySlab[s]; ok {
				srcs = append(srcs, src)
			}
		}
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
	sh.Last[ps] = pdev.H2DAsync(sh.SlabM[ps], k, p-sh.Part.Slabs[ps].Start,
		hostA.View(k, p, n-k, ib), sh.Last[ps])

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
// per-slab partials of A(0:k-1, k:n-1)·Vexp are combined ascending on
// the host, the T factor is applied there, and the result is written
// into yHost rows 0..k-1 (and row n).
func (sh *Shard) YTop(yHost, tHost *matrix.Matrix, p, k, ib int) {
	n := sh.N
	pool := sh.Pool
	pp := pool.Params
	pad := sh.Pad

	batches := sh.ytop[:0]
	for d, dev := range pool.Devices {
		kgs := sh.evs[:0]
		active := sh.active[d][:0]
		for _, s := range sh.DevSlabs[d] {
			lo, cnt, g, ok := sh.updRange(s, k)
			if !ok {
				continue
			}
			if len(active) == 0 {
				pool.Issue(dev)
			}
			col := len(active) * sh.NB
			kg := dev.Gemm(blas.NoTrans, blas.NoTrans, k, ib, cnt, 1,
				sh.SlabM[s], 0, lo, sh.dVexp[d], g-k, 0, 0, sh.dWide[d], 0, col,
				sh.evVexp[d], sh.Last[s])
			if pad > 0 {
				// Checksum-row partial: (eᵀA_pre)_slab·Vexp — row n of the
				// slab holds the maintained column sums of A *before* this
				// panel's factorization, which is exactly what the Yce
				// identity needs. The panel slab must NOT be re-encoded
				// before this call: Broadcast only rewrites data rows, so
				// its pre-factorization checksum row is still in place.
				kg = dev.Gemm(blas.NoTrans, blas.NoTrans, 1, ib, cnt, 1,
					sh.SlabM[s], n, lo, sh.dVexp[d], g-k, 0, 0, sh.dWide[d], k, col, kg)
			}
			sh.Last[s] = kg
			kgs = append(kgs, kg)
			active = append(active, s)
		}
		sh.evs, sh.active[d] = kgs, active
		if len(active) == 0 {
			continue
		}
		ev := dev.D2HAsync(sh.stageWide[d].View(0, 0, k+pad, len(active)*sh.NB), sh.dWide[d], 0, 0, kgs...)
		batches = append(batches, devBatch{ev: ev, active: active})
	}
	sh.ytop = batches
	for _, b := range batches {
		pool.Wait(b.ev)
	}
	cost := pp.GemmHost(k+pad, ib, ib)/2 + float64(len(sh.Part.Slabs))*pp.GemvHost(k+pad, ib)/2
	pool.HostOp(cost, func() {
		ys := sh.ysum
		for j := 0; j < ib; j++ {
			col := ys.Data[j*ys.Stride : j*ys.Stride+k+pad]
			for r := range col {
				col[r] = 0
			}
		}
		bySlab := map[int]int{}
		for _, b := range batches {
			for pos, s := range b.active {
				bySlab[s] = pos
			}
		}
		for s := range sh.Part.Slabs {
			pos, ok := bySlab[s]
			if !ok {
				continue
			}
			d := sh.Part.Slabs[s].Owner
			st := sh.stageWide[d]
			for j := 0; j < ib; j++ {
				blas.Daxpy(k+pad, 1, st.Data[(pos*sh.NB+j)*st.Stride:], 1, ys.Data[j*ys.Stride:], 1)
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

// vsumRow returns the event for device d's global V column-sum vector
// (eᵀV, 1×ib), computing it at most once per iteration: the priority and
// remainder left-update parts consume the same vector.
func (sh *Shard) vsumRow(d int, dev *gpu.Device, vrows, ib int) sim.Event {
	if !sh.vsumHave[d] {
		sh.vsumReady[d] = dev.ColSums(sh.dVexp[d], 0, 0, vrows, ib, sh.dVsumRow[d], 0, 0, sh.evVexp[d])
		sh.vsumHave[d] = true
	}
	return sh.vsumReady[d]
}

// PriorityUpdate applies the complete right+left trailing-update chain to
// just the next panel's columns [p+ib, p+ib+ib2) on their owning device,
// enqueued ahead of every remainder kernel — the depth-1 lookahead split.
// The checksum algebra splits the same way: when the priority columns sit
// in a non-panel halo slab, their checksum-row entries ride the priority
// chain (row n of the right GEMM, plus the left chkrow GEMM restricted to
// those columns), while the slab's checksum column — one vector spanning
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
	rows := n
	if sh.Pad > 0 && ns != ps {
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
	e = dev.Gemm(blas.NoTrans, blas.NoTrans, n-k, ib2, ib, -1,
		sh.dVexp[d], 0, 0, sh.dSbuf[d], 0, 0, 1, sh.SlabM[ns], k, lo, e)
	if sh.Pad > 0 && ns != ps {
		e = dev.Gemm(blas.NoTrans, blas.NoTrans, 1, ib2, ib, -1,
			sh.dVsumRow[d], 0, 0, sh.dSbuf[d], 0, 0, 1, sh.SlabM[ns], n, lo,
			sh.vsumRow(d, dev, n-k, ib), e)
	}
	sh.Last[ns] = e
	sh.priSlab, sh.priEnd = ns, nextP+ib2
	sh.nextPanelSlab, sh.nextPanelEv = ns, e
}

// RightUpdate applies A := A − Y·Vexpᵀ to every slab's share of columns
// k..n-1 on its owner. Non-panel slabs with Pad carry the halo through
// the update: the checksum row rides as row n of the GEMM (Y's row n is
// Yce) and the checksum column is updated with the slab's V column sums.
// The panel slab is updated data-only (it is re-encoded afterwards).
// Columns already covered by PriorityUpdate are skipped; their slab's
// whole-slab checksum column update still runs here.
func (sh *Shard) RightUpdate(p, k, ib int) {
	n := sh.N
	pool := sh.Pool
	ps := sh.Part.SlabOf(p)

	for d, dev := range pool.Devices {
		issued := false
		for _, s := range sh.DevSlabs[d] {
			lo, cnt, g, ok := sh.updRange(s, k)
			if !ok {
				continue
			}
			if !issued {
				pool.Issue(dev)
				issued = true
			}
			deps := []sim.Event{sh.evVexp[d], sh.evY[d], sh.Last[s]}
			if s == ps {
				// Panel-column share (rows 0..k-1 only — the lower rows hold
				// the freshly uploaded V) ...
				e := sh.Last[s]
				if ib > 1 {
					e = dev.Gemm(blas.NoTrans, blas.Trans, k, ib-1, ib, -1,
						sh.dYb[d], 0, 0, sh.dVexp[d], 0, 0, 1, sh.SlabM[s], 0, k-sh.Part.Slabs[s].Start, deps...)
				}
				// ... and the trailing share, full data height, no halo,
				// starting past any priority-updated columns.
				tFrom := p + ib
				if s == sh.priSlab {
					tFrom = sh.priEnd
				}
				if tLo, tCnt, tg, tok := sh.updRange(s, tFrom); tok {
					e = dev.Gemm(blas.NoTrans, blas.Trans, n, tCnt, ib, -1,
						sh.dYb[d], 0, 0, sh.dVexp[d], tg-k, 0, 1, sh.SlabM[s], 0, tLo,
						sh.evVexp[d], sh.evY[d], e)
				}
				sh.Last[s] = e
				continue
			}
			e := sh.Last[s]
			dLo, dCnt, dg, dok := lo, cnt, g, true
			if s == sh.priSlab {
				dLo, dCnt, dg, dok = sh.updRange(s, sh.priEnd)
			}
			if dok {
				e = dev.Gemm(blas.NoTrans, blas.Trans, n+sh.Pad, dCnt, ib, -1,
					sh.dYb[d], 0, 0, sh.dVexp[d], dg-k, 0, 1, sh.SlabM[s], 0, dLo, deps...)
			}
			if sh.Pad > 0 {
				// Column-sum vector of the slab's Vexp rows — always the
				// slab's full column range, priority columns included: the
				// checksum column is one vector spanning every column, so
				// its update stays whole here — then chkcol −= Y·vsumᵀ
				// (row n of Y keeps the corner coherent).
				vs := dev.Gemv(blas.Trans, cnt, ib, 1, sh.dVexp[d], g-k, 0,
					sh.dOnes[d], 0, 0, 0, sh.dVsumCol[d], 0, 0, sh.evVexp[d])
				e = dev.Gemv(blas.NoTrans, n+1, ib, -1, sh.dYb[d], 0, 0,
					sh.dVsumCol[d], 0, 0, 1, sh.SlabM[s], 0, sh.Part.Slabs[s].Cols, vs, e)
			}
			sh.Last[s] = e
		}
	}
}

// LeftUpdate applies A := (I − V·Tᵀ·Vᵀ)·A to every slab's share of the
// trailing columns p+ib..n-1 on its owner, keeping the intermediate
// S = Tᵀ·Vᵀ·C per device. With Pad, non-panel slabs extend the update to
// the checksum column (the halo transforms by the same operator) and
// maintain the checksum row with the global V column-sum vector.
func (sh *Shard) LeftUpdate(p, k, ib int) {
	n := sh.N
	pool := sh.Pool
	ps := sh.Part.SlabOf(p)

	for d, dev := range pool.Devices {
		issued := false
		for _, s := range sh.DevSlabs[d] {
			from := p + ib
			if s == sh.priSlab {
				from = sh.priEnd
			}
			pad := sh.Pad
			if s == ps {
				pad = 0
			}
			lo, cnt, _, ok := sh.updRange(s, from)
			if !ok {
				if pad == 0 || s != sh.priSlab {
					continue
				}
				// The priority part covered every data column of the slab;
				// the checksum column still transforms by the operator here.
				lo, cnt = sh.Part.Slabs[s].Cols, 0
			}
			if !issued {
				pool.Issue(dev)
				issued = true
			}
			e := dev.Gemm(blas.Trans, blas.NoTrans, ib, cnt+pad, n-k, 1,
				sh.dVexp[d], 0, 0, sh.SlabM[s], k, lo, 0, sh.dSbuf[d], 0, 0,
				sh.evVexp[d], sh.Last[s])
			e = dev.Trmm(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, ib, cnt+pad, 1,
				sh.dTb[d], 0, 0, sh.dSbuf[d], 0, 0, sh.evT[d], e)
			e = dev.Gemm(blas.NoTrans, blas.NoTrans, n-k, cnt+pad, ib, -1,
				sh.dVexp[d], 0, 0, sh.dSbuf[d], 0, 0, 1, sh.SlabM[s], k, lo, e)
			if pad > 0 {
				// chkrow −= (eᵀV)·S, covering the chkcol column's corner too.
				e = dev.Gemm(blas.NoTrans, blas.NoTrans, 1, cnt+pad, ib, -1,
					sh.dVsumRow[d], 0, 0, sh.dSbuf[d], 0, 0, 1, sh.SlabM[s], n, lo,
					sh.vsumRow(d, dev, n-k, ib), e)
			}
			sh.Last[s] = e
		}
	}
	sh.priSlab = -1
}

// Gather copies every slab's full data region back to the host matrix
// and waits for all transfers. Because the device copies are
// authoritative for the entire matrix, the gather also heals any
// host-side corruption of already-finished columns.
func (sh *Shard) Gather(hostA *matrix.Matrix) {
	evs := sh.evs[:0]
	for _, s := range sh.Part.Slabs {
		dev := sh.Owner(s.Index)
		sh.Pool.Issue(dev)
		e := dev.D2HAsync(hostA.View(0, s.Start, sh.N, s.Cols), sh.SlabM[s.Index], 0, 0, sh.Last[s.Index])
		sh.Last[s.Index] = e
		evs = append(evs, e)
	}
	for _, e := range evs {
		sh.Pool.Wait(e)
	}
	sh.evs = evs
}
