package devpool

import (
	"fmt"
	"math"

	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// Parity is the fail-stop encoding of a shard (beyond-paper, DESIGN.md
// §13): for each snake round — the K consecutive slabs r·K..(r+1)·K−1,
// which by construction live on K distinct devices — a dedicated parity
// device holds the columnwise XOR of the round's slabs, bit pattern by
// bit pattern. XOR over raw float64 bits (GF(2) addition) rather than a
// floating-point sum is what makes reconstruction exact: a lost slab is
// parity ⊕ survivors with no rounding, so a recovered run stays
// bit-identical to a fault-free one. The parity device stores one
// (N+Pad)×(Width+Pad) matrix per round — 1/K memory overhead — and is
// not a pool member: it never computes, it only absorbs refreshes and
// serves reconstructions.
//
// Parity values are float64 only as a container. They are produced by
// XOR of bit patterns and consumed by XOR of bit patterns; no kernel
// ever does arithmetic on them (copies preserve bits exactly).
type Parity struct {
	sh *Shard
	// Dev is the dedicated checksum device holding every round's parity.
	Dev *gpu.Device
	// K is the round size (the pool size at encoding time).
	K int

	rounds []*gpu.Matrix // per round: (N+Pad) × (Width+Pad)
	last   []sim.Event   // last event touching each round's parity

	acc *matrix.Matrix // host XOR accumulator, (N+Pad) × (Width+Pad)
	tmp *matrix.Matrix // host staging for one slab read (reconstruction)
	// stage holds one staging buffer per round position, so a refresh
	// can issue all K device→host pulls before waiting on any of them:
	// the transfers ride K distinct copy engines concurrently, making
	// the modeled refresh cost the slowest single pull, not their sum.
	stage []*matrix.Matrix
	// pulls is refreshRound's reusable list of in-flight slab reads.
	pulls []pull
}

// pull is one slab read of a parity refresh: cnt columns landing in buf.
type pull struct {
	cnt int
	buf *matrix.Matrix
	ev  sim.Event
}

// NewParity allocates the per-round parity matrices on dev and returns
// the (not yet refreshed) encoding. Call RefreshAll once the slabs hold
// their initial content.
func NewParity(sh *Shard, dev *gpu.Device) *Parity {
	k := sh.Pool.K()
	nRounds := (len(sh.Part.Slabs) + k - 1) / k
	py := &Parity{sh: sh, Dev: dev, K: k}
	py.rounds = make([]*gpu.Matrix, nRounds)
	py.last = make([]sim.Event, nRounds)
	rows := sh.N + sh.Pad
	cols := sh.Part.Width + sh.Pad
	for r := range py.rounds {
		py.rounds[r] = dev.Alloc(rows, cols)
	}
	mode := sh.Pool.Mode
	py.acc = mode.HostMatrix(rows, cols)
	py.tmp = mode.HostMatrix(rows, cols)
	py.stage = make([]*matrix.Matrix, k)
	for i := range py.stage {
		py.stage[i] = mode.HostMatrix(rows, cols)
	}
	return py
}

// RoundOf returns the parity round covering slab s.
func (py *Parity) RoundOf(s int) int { return s / py.K }

// roundSlabs returns the slab index range [lo, hi) of round r.
func (py *Parity) roundSlabs(r int) (lo, hi int) {
	lo = r * py.K
	return lo, min(lo+py.K, len(py.sh.Part.Slabs))
}

// xorInto folds src into dst elementwise over the raw float64 bits.
func xorInto(dst, src []float64) {
	for i := range src {
		dst[i] = math.Float64frombits(math.Float64bits(dst[i]) ^ math.Float64bits(src[i]))
	}
}

// RefreshAll recomputes every round's parity from column 0 — the
// initial encoding after upload, when every column is still live.
func (py *Parity) RefreshAll() {
	for r := range py.rounds {
		py.refreshRound(r, 0)
	}
}

// Refresh brings the parity up to date with the slabs at a sync point
// of the blocked iteration at panel p. Columns left of p are finished —
// no kernel writes them again — so their parity contribution is already
// correct from earlier refreshes; each round recomputes only from its
// lowest possibly-changed local column. A round whose every slab is
// finished is skipped outright.
func (py *Parity) Refresh(p int) {
	for r := range py.rounds {
		lo := -1
		first, end := py.roundSlabs(r)
		for s := first; s < end; s++ {
			sl := py.sh.Part.Slabs[s]
			if sl.End() <= p {
				continue // finished slab: content frozen
			}
			l := p - sl.Start
			if l < 0 {
				l = 0
			}
			if lo < 0 || l < lo {
				lo = l
			}
		}
		if lo < 0 {
			continue
		}
		py.refreshRound(r, lo)
	}
}

// RefreshRoundOf recomputes the full parity of the round containing
// slab s (used after a transient correction rewrites slab content that
// earlier refreshes already folded in).
func (py *Parity) RefreshRoundOf(s int) {
	py.refreshRound(py.RoundOf(s), 0)
}

// refreshRound recomputes round r's parity for local columns [lo, …):
// every slab in the round streams those columns back to the host — all
// pulls issued before any is awaited, so the K transfers overlap on
// their K distinct copy engines — then the host folds them with XOR in
// ascending slab order and uploads the result to the parity device.
// The fold order is irrelevant to the bits (XOR commutes exactly) but
// kept ascending for a deterministic span sequence.
func (py *Parity) refreshRound(r, lo int) {
	sh := py.sh
	pool := sh.Pool
	rows := sh.N + sh.Pad
	wmax := sh.Part.Width + sh.Pad
	if lo >= wmax {
		return
	}
	acc := py.acc
	pool.HostOp(pool.Params.VecHost(rows*(wmax-lo))/8, func() {
		for j := lo; j < wmax; j++ {
			col := acc.Data[j*acc.Stride : j*acc.Stride+rows]
			for i := range col {
				col[i] = 0
			}
		}
	})
	pulls := py.pulls[:0]
	first, end := py.roundSlabs(r)
	for s := first; s < end; s++ {
		i := s - first
		wloc := sh.Part.Slabs[s].Cols + sh.Pad
		if lo >= wloc {
			continue
		}
		cnt := wloc - lo
		dev := sh.Owner(s)
		pool.Issue(dev)
		e := dev.D2HAsync(py.stage[i].View(0, 0, rows, cnt), sh.SlabM[s], 0, lo, sh.Last[s])
		pulls = append(pulls, pull{cnt: cnt, buf: py.stage[i], ev: e})
	}
	for _, p := range pulls {
		pool.Wait(p.ev)
		buf, cnt := p.buf, p.cnt
		pool.HostOp(pool.Params.VecHost(rows*cnt), func() {
			for j := 0; j < cnt; j++ {
				xorInto(acc.Data[(lo+j)*acc.Stride:(lo+j)*acc.Stride+rows],
					buf.Data[j*buf.Stride:j*buf.Stride+rows])
			}
		})
	}
	py.pulls = pulls
	pool.Issue(py.Dev)
	e := py.Dev.H2DAsync(py.rounds[r], 0, lo, acc.View(0, lo, rows, wmax-lo), py.last[r])
	py.last[r] = e
}

// Reconstruct rebuilds every slab the device at pool slot d owned, onto
// the (replacement) device now occupying that slot, from parity ⊕
// surviving peers. The caller must have substituted the replacement
// (Pool.ReplaceDevice) and reallocated its slab storage
// (Shard.Reattach) first. Errors if any needed source — a surviving
// peer or the parity device itself — is dead too: a double fault
// exceeds the encoding's single-loss budget.
func (py *Parity) Reconstruct(d int) error {
	sh := py.sh
	pool := sh.Pool
	rows := sh.N + sh.Pad
	if py.Dev.Dead() {
		return fmt.Errorf("devpool: parity device lost")
	}
	for _, s := range sh.DevSlabs[d] {
		r := py.RoundOf(s)
		wdead := sh.Part.Slabs[s].Cols + sh.Pad
		// Start from the parity columns covering the dead slab's extent.
		pool.Issue(py.Dev)
		e := py.Dev.D2HAsync(py.acc.View(0, 0, rows, wdead), py.rounds[r], 0, 0, py.last[r])
		pool.Wait(e)
		// Peel off each survivor's contribution.
		first, end := py.roundSlabs(r)
		for peer := first; peer < end; peer++ {
			if peer == s {
				continue
			}
			owner := sh.Part.Slabs[peer].Owner
			dev := pool.Devices[owner]
			if dev.Dead() {
				return fmt.Errorf("devpool: surviving slab %d on dead device %d", peer, owner)
			}
			w := sh.Part.Slabs[peer].Cols + sh.Pad
			if w > wdead {
				w = wdead
			}
			pool.Issue(dev)
			e := dev.D2HAsync(py.tmp.View(0, 0, rows, w), sh.SlabM[peer], 0, 0, sh.Last[peer])
			pool.Wait(e)
			tmp := py.tmp
			acc := py.acc
			pool.HostOp(pool.Params.VecHost(rows*w), func() {
				for j := 0; j < w; j++ {
					xorInto(acc.Data[j*acc.Stride:j*acc.Stride+rows],
						tmp.Data[j*tmp.Stride:j*tmp.Stride+rows])
				}
			})
		}
		// What remains is the dead slab, bit for bit.
		repl := pool.Devices[d]
		pool.Issue(repl)
		up := repl.H2DAsync(sh.SlabM[s], 0, 0, py.acc.View(0, 0, rows, wdead))
		sh.Last[s] = up
		pool.Wait(up)
	}
	return nil
}

// Free releases the parity device allocations.
func (py *Parity) Free() {
	for _, m := range py.rounds {
		py.Dev.Free(m)
	}
}
