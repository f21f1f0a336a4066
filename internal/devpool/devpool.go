// Package devpool models a pool of K simulated accelerators plus the
// 1-D block-column partitioner that shards the trailing-matrix work of
// the hybrid reductions across them.
//
// # Execution model
//
// Each pool member is a gpu.Device with its own address space, compute
// and copy streams, and driver ("dK-host") timeline: the driver lane
// models the per-device thread that issues commands, so the launch
// overhead of K command streams is paid concurrently, exactly as K
// driver threads pinned to K contexts would behave. The algorithm's own
// serial CPU work — panel factorization, partial-sum combines — runs on
// a separate main-host timeline owned by the pool. Makespan is the
// maximum over every lane of every device and the main host.
//
// # Determinism contract
//
// The partition is a fixed grid derived only from (n, nb) — never from
// K. Every cross-slab contraction in the reductions is computed as
// per-slab partials combined on the host in ascending slab order, so
// the floating-point evaluation tree is identical at every device
// count: K changes placement and simulated time, never bits. (In the
// simulator, kernels execute on the shared host BLAS substrate, so
// *where* a slab-local operation runs cannot change its result either.)
//
// # Fail-stop device loss (beyond-paper, DESIGN.md §13)
//
// A pool device can die permanently mid-run (gpu.Device.Kill), taking
// its resident slabs with it. The pool keeps no redundant copy of them:
// because the result does not depend on K, the fault-tolerant reduction
// survives the loss by running again from its input on the surviving
// devices, a new pool that StartAt places at the loss instant.
package devpool

import (
	"context"
	"fmt"
	"io"

	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Slab is one block-column range of the fixed partition grid.
type Slab struct {
	// Index is the slab's position in the grid (ascending column order).
	Index int
	// Start is the first global column; Cols is the slab width (equal to
	// Partition.Width except possibly for the last slab).
	Start, Cols int
	// Owner is the pool index of the device holding the slab, assigned
	// in snake (boustrophedon) order: 0,1,…,K-1,K-1,…,1,0,0,1,… Slab
	// lifetime work grows roughly linearly with the slab index (column c
	// is updated by every panel left of it, so right slabs stay active
	// longest); snake pairing balances those linear weights across
	// devices where plain round-robin leaves the owner of the rightmost
	// slabs with ~2× the work.
	Owner int
}

// End returns one past the slab's last global column.
func (s Slab) End() int { return s.Start + s.Cols }

// Partition is the fixed 1-D block-column grid for an n×n matrix with
// panel width nb. The grid depends only on (n, nb): device count assigns
// owners but never moves slab boundaries, which is what makes results
// bit-identical at every K.
type Partition struct {
	N, NB int
	// Width is the slab width: a multiple of nb so every panel falls
	// entirely inside one slab.
	Width int
	Slabs []Slab
}

// NewPartition builds the fixed grid for an n×n matrix with block size
// nb, assigning slab owners in snake order over k devices.
func NewPartition(n, nb, k int) Partition {
	if nb <= 0 || n < 0 || k <= 0 {
		panic(fmt.Sprintf("devpool: NewPartition(%d,%d,%d)", n, nb, k))
	}
	// Slab width trades per-iteration balance against per-slab overhead:
	// each blocked iteration's critical path carries max-over-devices
	// update work, imbalanced by up to one slab, so narrow slabs scale
	// better with K — but every slab adds a partial column to each panel
	// GEMV round trip and a block of Y-top partials, each moved to the
	// host and combined there (a round is one launch per device however
	// many slabs it owns, see Shard). The width is capped at 128 columns;
	// small problems aim near n/8 so tests exercise real distribution.
	// Rounded up to a multiple of nb, independent of k. The width fixes
	// the ascending-slab evaluation tree, so changing it changes the
	// pool's result bits (not their K-invariance).
	target := n / 8
	if target > 128 {
		target = 128
	}
	if target < nb {
		target = nb
	}
	width := (target + nb - 1) / nb * nb
	pt := Partition{N: n, NB: nb, Width: width}
	for start := 0; start < n; start += width {
		w := width
		if start+w > n {
			w = n - start
		}
		idx := len(pt.Slabs)
		pt.Slabs = append(pt.Slabs, Slab{Index: idx, Start: start, Cols: w, Owner: snakeOwner(idx, k)})
	}
	return pt
}

// snakeOwner assigns slab s of a k-device pool in boustrophedon order
// (see Slab.Owner).
func snakeOwner(s, k int) int {
	q, r := s/k, s%k
	if q%2 == 1 {
		return k - 1 - r
	}
	return r
}

// SlabOf returns the index of the slab containing global column c.
func (pt Partition) SlabOf(c int) int { return c / pt.Width }

// MaxSlabsPerOwner reports the largest number of slabs any single owner
// holds (sizes per-device staging buffers).
func (pt Partition) MaxSlabsPerOwner(k int) int {
	counts := make([]int, k)
	m := 0
	for _, s := range pt.Slabs {
		counts[s.Owner]++
		if counts[s.Owner] > m {
			m = counts[s.Owner]
		}
	}
	return m
}

// Pool owns K simulated devices and the main host.
type Pool struct {
	Devices []*gpu.Device
	// Host is the algorithm's serial CPU timeline (the main thread), the
	// host lane of main (gpu.MainHost); per-device launch overhead lives
	// on each device's own driver lane.
	Host   *sim.Timeline
	Params sim.Params
	Mode   gpu.Mode

	main *gpu.Device
	ctx  context.Context
}

// New builds a pool of k freshly allocated indexed devices.
func New(k int, p sim.Params, mode gpu.Mode) *Pool {
	if k <= 0 {
		panic(fmt.Sprintf("devpool: New(%d)", k))
	}
	devs := make([]*gpu.Device, k)
	for i := range devs {
		devs[i] = gpu.NewIndexed(p, mode, i)
	}
	return Wrap(devs)
}

// Wrap builds a pool around existing devices (e.g. a device subset
// leased from the serving layer). All devices must share params/mode.
func Wrap(devs []*gpu.Device) *Pool {
	if len(devs) == 0 {
		panic("devpool: Wrap with no devices")
	}
	main := gpu.MainHost(devs)
	return &Pool{
		Devices: devs,
		Host:    main.Host,
		Params:  devs[0].Params,
		Mode:    devs[0].Mode,
		main:    main,
	}
}

// K reports the device count.
func (pl *Pool) K() int { return len(pl.Devices) }

// StartAt advances every timeline of the pool (the main host and each
// lane of each device) to instant t, so work issued from now on starts
// no earlier: a run restarted after a device loss begins at the loss.
func (pl *Pool) StartAt(t float64) {
	pl.Host.AdvanceTo(t)
	for _, d := range pl.Devices {
		for _, l := range []*sim.Timeline{d.Host, d.Compute, d.Copy, d.Lookahead} {
			l.AdvanceTo(t)
		}
	}
}

// SetObs attaches a metrics registry to the pool and every device.
func (pl *Pool) SetObs(r *obs.Registry) {
	pl.main.SetObs(r)
	for _, d := range pl.Devices {
		d.SetObs(r)
	}
}

// Obs returns the attached registry (nil when detached).
func (pl *Pool) Obs() *obs.Registry { return pl.main.Obs() }

// SetJob sets (or clears, with "") the job identifier labeled onto every
// subsequently emitted pool and device series, so a shared serving
// registry attributes each cost to the request that caused it.
func (pl *Pool) SetJob(job string) {
	pl.main.SetJob(job)
	for _, d := range pl.Devices {
		d.SetJob(job)
	}
}

// label appends the job label to the pool's own series when set.
func (pl *Pool) label(ls ...obs.Label) []obs.Label {
	if job := pl.main.Job(); job != "" {
		ls = append(ls, obs.L("job", job))
	}
	return ls
}

// SetContext attaches a cancellation context to the pool and devices.
func (pl *Pool) SetContext(ctx context.Context) {
	pl.ctx = ctx
	for _, d := range pl.Devices {
		d.SetContext(ctx)
	}
}

// CtxErr reports the attached context's error, if any.
func (pl *Pool) CtxErr() error {
	if pl.ctx == nil {
		return nil
	}
	return pl.ctx.Err()
}

// SetPhase names the phase subsequent costs are attributed to, on the
// main host and on every device, returning the previous phase.
func (pl *Pool) SetPhase(name string) string {
	for _, d := range pl.Devices {
		d.SetPhase(name)
	}
	return pl.main.SetPhase(name)
}

// HostOp charges cost seconds of serial CPU work on the main-host lane
// and, in Real mode, runs f. Its costs are metered under device="main",
// and its span is recorded in the first device's trace, so every
// consumer of the device traces sees the main-host lane.
func (pl *Pool) HostOp(cost float64, f func()) { pl.main.HostOp(cost, f) }

// Issue models the main thread handing commands to a device's driver:
// the driver cannot process a command before the main thread issued it,
// so its lane is advanced (idle) to the main thread's current instant.
// Call it before a batch of operations on one device.
func (pl *Pool) Issue(d *gpu.Device) { d.Follow(pl.main) }

// Wait blocks the main host thread until the event completes
// (cudaEventSynchronize from the algorithm thread).
func (pl *Pool) Wait(e sim.Event) { pl.main.Sync(e) }

// WaitAll blocks the main host until every lane of every device drains.
func (pl *Pool) WaitAll() {
	for _, d := range pl.Devices {
		pl.main.WaitFor(d)
	}
}

// Elapsed returns the pool makespan: the maximum over the main host and
// every device lane.
func (pl *Pool) Elapsed() float64 {
	t := pl.Host.Tail()
	for _, d := range pl.Devices {
		if e := d.Elapsed(); e > t {
			t = e
		}
	}
	return t
}

// FinishRun publishes end-of-run gauges: each device's labeled series
// plus the pool aggregate makespan (max over devices — the simulated
// wall clock of the whole multi-device run).
func (pl *Pool) FinishRun() {
	for _, d := range pl.Devices {
		d.FinishRun()
	}
	reg := pl.main.Obs()
	if reg == nil {
		return
	}
	reg.Gauge("sim_makespan_seconds", pl.label()...).Set(pl.Elapsed())
	reg.Gauge("pool_devices", pl.label()...).Set(float64(pl.K()))
	l := pl.label(obs.L("lane", pl.Host.Name()))
	reg.Gauge("lane_busy_seconds", l...).Set(pl.Host.Busy())
	reg.Gauge("lane_ops", l...).Set(float64(pl.Host.Ops()))
	reg.Gauge("lane_utilization", l...).Set(pl.Host.Utilization(pl.Elapsed()))
}

// EnableTrace starts span recording on every device; the main-host
// lane rides in the first device's trace (see HostOp).
func (pl *Pool) EnableTrace() {
	for _, d := range pl.Devices {
		d.EnableTrace()
	}
}

// Trace returns the merged spans of every device, main host included.
func (pl *Pool) Trace() []gpu.Span {
	var out []gpu.Span
	for _, d := range pl.Devices {
		out = append(out, d.Trace()...)
	}
	return out
}

// lanes is the pool's trace lane order: the main host, then each
// device's host, compute and copy lanes in pool order.
func (pl *Pool) lanes() []string {
	out := []string{pl.Host.Name()}
	for _, d := range pl.Devices {
		out = append(out, d.Host.Name(), d.Compute.Name(), d.Copy.Name())
	}
	return out
}

// WriteChromeTrace exports the merged multi-device trace: one thread
// lane for the main host and three per device ("d0-host", "d0-compute",
// "d0-copy", …), ordered main first then by device.
func (pl *Pool) WriteChromeTrace(w io.Writer) error {
	return gpu.WriteChromeTrace(w, "fthess-sim-pool", pl.Trace(), pl.lanes())
}

// TraceSummary prints one line per lane (main host first, then device
// lanes in pool order, then any others sorted) with span counts and
// busy time.
func (pl *Pool) TraceSummary(w io.Writer) {
	gpu.TraceSummary(w, pl.Trace(), pl.lanes())
}
