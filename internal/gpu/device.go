// Package gpu simulates the accelerator of the paper's hybrid testbed: a
// device with its own memory space, FIFO command streams, events, and
// asynchronous host↔device transfers, driven by the cost model in
// internal/sim.
//
// Two execution modes share one code path:
//
//   - Real: every kernel executes actual float64 arithmetic on
//     device-resident buffers (used by all correctness tests and the
//     numerical experiments), and the simulated clock advances alongside.
//   - CostOnly: kernels and transfers advance the simulated clock but touch
//     no data, so the paper's large matrix sizes (N ≈ 10⁴, Figure 6) can be
//     swept in milliseconds. The reduction's control flow is data-oblivious,
//     so the operation sequence is identical in both modes. A cost-only run
//     holds no values at all — device matrices have nil Data, and host
//     inputs and workspaces are storage-less (Mode.HostMatrix, HostCopy) —
//     and dispatching a simulated operation allocates nothing.
//
// Operations execute eagerly in program order (which is always a legal
// schedule of the stream program), while the timelines model the
// concurrency: a kernel on the compute stream and an async copy on the
// copy stream overlap in simulated time exactly as they would on the
// paper's K40c.
package gpu

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Mode selects real execution or cost-only simulation.
type Mode int

const (
	// Real executes kernel arithmetic on device buffers.
	Real Mode = iota
	// CostOnly advances simulated time without touching data.
	CostOnly
)

func (m Mode) String() string {
	if m == Real {
		return "real"
	}
	return "cost-only"
}

// HostMatrix returns an r×c host workspace for a run in mode m: zeroed
// storage in Real mode, a storage-less matrix.Shape in CostOnly mode,
// where no kernel and no HostOp body ever runs.
func (m Mode) HostMatrix(r, c int) *matrix.Matrix {
	if m == CostOnly {
		return matrix.Shape(r, c)
	}
	return matrix.New(r, c)
}

// HostCopy returns a run's host working copy of the input a: a deep copy
// in Real mode, a storage-less shape of a in CostOnly mode, which never
// reads a's values.
func (m Mode) HostCopy(a *matrix.Matrix) *matrix.Matrix {
	if m == CostOnly {
		return matrix.Shape(a.Rows, a.Cols)
	}
	return a.Clone()
}

// HostElem reads element (i, j) of a run's host matrix a in Real mode. A
// cost-only run holds no host values, and such a read only feeds device
// kernels that do not execute there, so it reads as zero.
func (m Mode) HostElem(a *matrix.Matrix, i, j int) float64 {
	if m != Real {
		return 0
	}
	return a.At(i, j)
}

// opKind is an operation family of the busy-time accounting.
type opKind uint8

const (
	kindGemm opKind = iota
	kindGemv
	kindTrmm
	kindVec
	kindCopy
	kindCustom
	kindH2D
	kindD2H
	kindHost
	numKinds
)

// kindNames are the families' names in TimeBreakdown, metric labels and
// trace spans.
var kindNames = [numKinds]string{"gemm", "gemv", "trmm", "vec", "copy", "custom", "h2d", "d2h", "host"}

// Device is a simulated accelerator.
type Device struct {
	Params sim.Params
	Mode   Mode

	// Host is the CPU timeline; Compute and Copy are the device streams
	// (MAGMA's hybrid DGEHRD uses exactly one of each). Lookahead is a
	// second, lower-priority-independent compute stream used by the
	// lookahead schedule: the next panel's device GEMVs issue there so
	// they can run concurrently with the remainder of the trailing update
	// still queued on Compute (MAGMA's priority-stream pattern).
	Host      *sim.Timeline
	Compute   *sim.Timeline
	Copy      *sim.Timeline
	Lookahead *sim.Timeline

	// stream is where kernels launch (SetStream; nil: Compute).
	stream *sim.Timeline
	// stretched and stretch scale the kernels of one lane (Stretch).
	stretched *sim.Timeline
	stretch   float64

	allocBytes int64
	kernels    int64
	transfers  int64
	bytesMoved int64
	// busy accumulates modeled busy seconds per operation family, feeding
	// the overhead-breakdown experiment; charged marks the families
	// charged at least once (the keys TimeBreakdown reports).
	busy    [numKinds]float64
	charged [numKinds]bool
	// tracing/trace record per-operation spans for the Chrome-trace
	// export (see trace.go).
	tracing bool
	trace   []Span
	// slabs is the tag of the next recorded span (TagSlabs).
	slabs [2]int

	// name distinguishes pool members ("d0", "d1", …); it is empty for the
	// classic single device, whose metric series stay unlabeled so every
	// pre-pool consumer keeps seeing the exact keys it always did.
	name string

	// job, when non-empty, adds a job=<id> label to every metric series
	// the device emits, so a shared serving registry attributes phase
	// timers and operation costs to the request that caused them (set via
	// SetJob before a run).
	job string

	// obs is the optional metrics sink; phase is the algorithm phase all
	// charged costs are currently attributed to (set via SetPhase). The
	// two caches avoid rebuilding series keys on the hot path.
	obs        *obs.Registry
	phase      string
	opCounters [numKinds]*obs.Counter
	phaseHists map[string]*obs.Histogram
	// phasePub mirrors phase for concurrent readers: the serving layer
	// polls it from HTTP handlers while the owning goroutine runs the
	// reduction. account() keeps using the plain field — the device is
	// otherwise single-goroutine and the hot path must stay lock-free.
	// It points into phaseNames, the device's interned copy of every
	// phase name published so far, so republishing a phase allocates
	// nothing.
	phasePub   atomic.Pointer[string]
	phaseNames map[string]*string
	// ctx, when set, is the cancellation signal the iteration loops of
	// hybrid/ft poll at their boundaries (and the panel factorization
	// per panel column). The simulated device executes eagerly — no goroutines,
	// no in-flight work between operations — so honoring ctx at those
	// points drains both streams by construction.
	ctx context.Context

	// Flow tracking links each async D2H copy span to the host-op span
	// that consumes it (rendered as flow arrows in the Chrome trace).
	flowSeq       int
	flowByEvent   map[float64]int
	pendingFlowIn []int

	// dead marks a device that suffered a fail-stop loss (Kill). A dead
	// device's memory is gone: reads return garbage (NaN fill) and writes
	// are dropped, modeling a detached accelerator whose mappings fault.
	// The simulated clocks still advance so issuing code keeps a coherent
	// notion of time until the loss is detected and the device replaced.
	dead bool

	// fusedFT routes Gemm/Gemv through the fused-ABFT blas substrate
	// (DESIGN.md §14): Real-mode kernels run DgemmFT/DgemvFT and the
	// cost model charges the checksum premium. The per-call verdicts
	// accumulate below (single-goroutine, like all device state).
	fusedFT      bool
	ftChecks     int64
	ftDetections int64
	ftNonFinite  bool
}

// New creates a device with the given cost parameters and mode.
func New(p sim.Params, mode Mode) *Device {
	return &Device{
		Params:    p,
		Mode:      mode,
		Host:      sim.NewTimeline("host"),
		Compute:   sim.NewTimeline("gpu-compute"),
		Copy:      sim.NewTimeline("gpu-copy"),
		Lookahead: sim.NewTimeline("gpu-lookahead"),
	}
}

// NewIndexed creates pool member k: a device whose lanes are prefixed with
// its name ("d0-host", "d0-compute", "d0-copy") so multi-device Chrome
// traces get one lane group per device, and whose metric series carry a
// device="dk" label. Its Host lane models the per-device driver thread
// that issues commands for this device — with K devices the launch
// overhead of K command streams is paid concurrently, exactly like K
// driver threads pinned to K contexts — while the algorithm's own serial
// CPU work runs on a separate main-host timeline owned by the pool.
func NewIndexed(p sim.Params, mode Mode, k int) *Device {
	return NewNamed(p, mode, fmt.Sprintf("d%d", k))
}

// NewNamed creates a device with an arbitrary lane-name prefix. The batch
// throughput engine uses it to name fractional-lease lanes ("d0.l1", …)
// so per-lane metric series and Chrome-trace rows identify the lane, not
// just the physical device.
func NewNamed(p sim.Params, mode Mode, name string) *Device {
	return &Device{
		Params:    p,
		Mode:      mode,
		name:      name,
		Host:      sim.NewTimeline(name + "-host"),
		Compute:   sim.NewTimeline(name + "-compute"),
		Copy:      sim.NewTimeline(name + "-copy"),
		Lookahead: sim.NewTimeline(name + "-lookahead"),
	}
}

// Name reports the pool name of the device ("d0", "d1", …), or "" for a
// classic single device created with New.
func (d *Device) Name() string { return d.name }

// Kill marks the device permanently dead (fail-stop loss). From now on
// D2H transfers from it fill the host buffer with NaN — the poisoned
// garbage a faulted mapping yields — and H2D transfers into it are
// dropped. Kill is irreversible; recovery replaces the device instead.
func (d *Device) Kill() { d.dead = true }

// Dead reports whether the device has been killed.
func (d *Device) Dead() bool { return d.dead }

// SetSubstrateFused switches the device's GEMM/GEMV kernels onto (or off)
// the fused-ABFT substrate. While on, Real-mode matrix kernels verify
// their own output in the macro-kernel epilogue (DgemmFT) or by dual
// modular redundancy (DgemvFT) and the cost model charges the modeled
// premium; detections accumulate in FTStats. CostOnly mode only changes
// the charged costs.
func (d *Device) SetSubstrateFused(on bool) { d.fusedFT = on }

// FTStats reports the fused-substrate verdicts accumulated since the last
// ResetFTStats: total checksum/DMR comparisons, threshold exceedances,
// and whether any compared total was non-finite.
func (d *Device) FTStats() (checks, detections int64, nonFinite bool) {
	return d.ftChecks, d.ftDetections, d.ftNonFinite
}

// ResetFTStats clears the fused-substrate counters.
func (d *Device) ResetFTStats() {
	d.ftChecks, d.ftDetections, d.ftNonFinite = 0, 0, false
}

// noteFT folds one fused-substrate call verdict into the device counters.
func (d *Device) noteFT(checks, detections int, nonFinite bool) {
	d.ftChecks += int64(checks)
	d.ftDetections += int64(detections)
	d.ftNonFinite = d.ftNonFinite || nonFinite
}

// Matrix is a column-major matrix resident in device memory. In CostOnly
// mode Data is nil.
type Matrix struct {
	dev    *Device
	Rows   int
	Cols   int
	Stride int
	Data   []float64
}

// View returns the r×c block of m at (i, j) as a device matrix sharing
// m's storage. A view is not an allocation: free m, never a view.
func (m *Matrix) View(i, j, r, c int) *Matrix {
	m.dev.checkRange("View", m, i, j, r, c)
	v := &Matrix{dev: m.dev, Rows: r, Cols: c, Stride: m.Stride}
	if m.Data != nil && r > 0 && c > 0 {
		v.Data = m.Data[j*m.Stride+i : (j+c-1)*m.Stride+i+r]
	}
	return v
}

// Alloc reserves an r×c device matrix (zero-initialized in Real mode).
func (d *Device) Alloc(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("gpu: Alloc(%d,%d)", r, c))
	}
	m := &Matrix{dev: d, Rows: r, Cols: c, Stride: max(r, 1)}
	if d.Mode == Real {
		m.Data = make([]float64, r*c)
	}
	d.allocBytes += int64(r) * int64(c) * 8
	return m
}

// Free releases the device allocation accounting for m.
func (d *Device) Free(m *Matrix) {
	d.allocBytes -= int64(m.Rows) * int64(m.Cols) * 8
	m.Data = nil
}

// AllocatedBytes reports the currently allocated device memory.
func (d *Device) AllocatedBytes() int64 { return d.allocBytes }

// KernelCount reports the number of kernels launched so far.
func (d *Device) KernelCount() int64 { return d.kernels }

// TransferStats reports the number of transfers and total bytes moved.
func (d *Device) TransferStats() (count, bytes int64) { return d.transfers, d.bytesMoved }

// TimeBreakdown returns the accumulated modeled busy seconds per
// operation family. The sum can exceed the makespan: lanes overlap.
func (d *Device) TimeBreakdown() map[string]float64 {
	out := make(map[string]float64, numKinds)
	for k, v := range d.busy {
		if d.charged[k] {
			out[kindNames[k]] = v
		}
	}
	return out
}

// charge adds cost to the busy seconds of an operation family.
func (d *Device) charge(kind opKind, cost float64) {
	d.busy[kind] += cost
	d.charged[kind] = true
}

// SetObs attaches a metrics registry: from now on every charged operation
// cost is observed into op_seconds_total{kind=...} and
// phase_seconds{phase=...}. A nil registry detaches.
func (d *Device) SetObs(r *obs.Registry) {
	d.obs = r
	d.opCounters = [numKinds]*obs.Counter{}
	d.phaseHists = make(map[string]*obs.Histogram)
}

// Obs returns the attached metrics registry (nil when detached).
func (d *Device) Obs() *obs.Registry { return d.obs }

// SetJob sets (or clears, with "") the job identifier labeled onto every
// subsequently emitted metric series. The series caches are reset because
// the cached instruments were created under the previous label set.
func (d *Device) SetJob(job string) {
	if d.job == job {
		return
	}
	d.job = job
	d.opCounters = [numKinds]*obs.Counter{}
	d.phaseHists = make(map[string]*obs.Histogram)
}

// Job reports the job identifier set via SetJob ("" when unset).
func (d *Device) Job() string { return d.job }

// SetPhase names the algorithm phase subsequent operation costs are
// attributed to, returning the previous phase so callers can restore it.
func (d *Device) SetPhase(name string) string {
	prev := d.phase
	d.phase = name
	p := d.phaseNames[name]
	if p == nil {
		p = d.internPhase(name)
	}
	d.phasePub.Store(p)
	return prev
}

// internPhase records the device's published copy of a phase name.
func (d *Device) internPhase(name string) *string {
	if d.phaseNames == nil {
		d.phaseNames = make(map[string]*string)
	}
	p := new(string)
	*p = name
	d.phaseNames[name] = p
	return p
}

// Phase reports the phase most recently set via SetPhase. Unlike every
// other Device method it is safe to call concurrently with a running
// reduction, which is how the serving layer exposes job progress.
func (d *Device) Phase() string {
	if p := d.phasePub.Load(); p != nil {
		return *p
	}
	return ""
}

// SetStream selects the stream later kernels launch on (Compute or
// Lookahead; nil selects Compute), returning the previous selection so
// callers can restore it, as cublasSetStream does for later CUBLAS
// calls. Transfers keep their own lanes, except D2HTail's mapped reads,
// which are issued into the stream like a kernel.
func (d *Device) SetStream(t *sim.Timeline) *sim.Timeline {
	prev := d.stream
	d.stream = t
	return prev
}

// current is the stream kernels launch on.
func (d *Device) current() *sim.Timeline {
	if d.stream == nil {
		return d.Compute
	}
	return d.stream
}

// Stretch multiplies the modeled duration of every later kernel and
// mapped read (D2HTail) on lane t by f (f = 1, or a nil t, stops it). It
// is a probe for schedule tests: on a stretched lane every operation
// completes late, so an operation on another lane that depends on one
// without waiting for it starts too early.
func (d *Device) Stretch(t *sim.Timeline, f float64) {
	d.stretched, d.stretch = t, f
}

// SetContext attaches a cancellation context to the device. The hybrid
// and fault-tolerant reductions install their context here on entry so
// that every layer holding a *Device — down to the per-column device
// GEMV loop of the panel factorization — can poll one signal. nil
// detaches (never cancelled).
func (d *Device) SetContext(ctx context.Context) {
	d.ctx = ctx
}

// CtxErr returns the attached context's error (context.Canceled or
// context.DeadlineExceeded), or nil when no context is attached or it is
// still live. Cancellation points check this between operations; because
// the simulated streams execute eagerly there is nothing in flight to
// abandon, so returning at a check point leaves the device reusable.
func (d *Device) CtxErr() error {
	if d.ctx == nil {
		return nil
	}
	return d.ctx.Err()
}

// account feeds one charged cost into the attached registry under the
// operation family and the current phase.
func (d *Device) account(kind opKind, cost float64) {
	if d.obs == nil {
		return
	}
	c := d.opCounters[kind]
	if c == nil {
		c = d.obs.Counter("op_seconds_total", d.label(obs.L("kind", kindNames[kind]))...)
		d.opCounters[kind] = c
	}
	c.Add(cost)
	phase := d.phase
	if phase == "" {
		phase = "other"
	}
	h := d.phaseHists[phase]
	if h == nil {
		h = d.obs.Histogram("phase_seconds", obs.DefaultDurationBuckets, d.label(obs.L("phase", phase))...)
		d.phaseHists[phase] = h
	}
	h.Observe(cost)
}

// label appends the device label (pool members) and job label (served
// requests) to a series' labels; classic offline single devices keep
// their historical unlabeled series.
func (d *Device) label(ls ...obs.Label) []obs.Label {
	if d.name != "" {
		ls = append(ls, obs.L("device", d.name))
	}
	if d.job != "" {
		ls = append(ls, obs.L("job", d.job))
	}
	return ls
}

// FinishRun publishes end-of-run gauges (makespan, per-lane busy time,
// operation counts, utilization, device totals) to the attached registry.
// Call once after an algorithm completes; no-op without a registry.
func (d *Device) FinishRun() {
	if d.obs == nil {
		return
	}
	makespan := d.Elapsed()
	d.obs.Gauge("sim_makespan_seconds", d.label()...).Set(makespan)
	lanes := []*sim.Timeline{d.Host, d.Compute, d.Copy}
	if d.Lookahead.Ops() > 0 {
		// The lookahead stream only appears in the lane gauges when the
		// schedule actually used it, so non-lookahead runs keep their
		// historical series set.
		lanes = append(lanes, d.Lookahead)
	}
	for _, t := range lanes {
		l := d.label(obs.L("lane", t.Name()))
		d.obs.Gauge("lane_busy_seconds", l...).Set(t.Busy())
		d.obs.Gauge("lane_ops", l...).Set(float64(t.Ops()))
		d.obs.Gauge("lane_utilization", l...).Set(t.Utilization(makespan))
	}
	d.obs.Gauge("device_kernels", d.label()...).Set(float64(d.kernels))
	d.obs.Gauge("device_transfers", d.label()...).Set(float64(d.transfers))
	d.obs.Gauge("device_transfer_bytes", d.label()...).Set(float64(d.bytesMoved))
	d.obs.Gauge("device_alloc_bytes", d.label()...).Set(float64(d.allocBytes))
}

// ptr returns the slice at device element (i, j); only valid in Real mode.
func (m *Matrix) ptr(i, j int) []float64 {
	if i < 0 || j < 0 || i >= m.Rows || j >= m.Cols {
		panic(fmt.Sprintf("gpu: device index (%d,%d) out of %dx%d", i, j, m.Rows, m.Cols))
	}
	return m.Data[j*m.Stride+i:]
}

// At reads one device element (Real mode only); used by tests and the
// recovery path, which on real hardware would be a tiny D2H read.
func (m *Matrix) At(i, j int) float64 {
	return m.ptr(i, j)[0]
}

// enqueue charges the host the kernel-launch overhead for issuing a
// command and returns the earliest instant the command may start: after
// its launch and every dependency.
func (d *Device) enqueue(deps []sim.Event) sim.Event {
	d.Host.Schedule(d.Params.KernelLaunchSec)
	return sim.Latest(d.Host.Tail(), deps)
}

// H2D synchronously copies the host matrix src into the device matrix dst
// at origin (di, dj). The host blocks until the transfer completes.
func (d *Device) H2D(dst *Matrix, di, dj int, src *matrix.Matrix) {
	e := d.H2DAsync(dst, di, dj, src)
	d.Sync(e)
}

// H2DAsync enqueues the copy on the copy stream and returns its event.
func (d *Device) H2DAsync(dst *Matrix, di, dj int, src *matrix.Matrix, deps ...sim.Event) sim.Event {
	d.checkRange("H2D", dst, di, dj, src.Rows, src.Cols)
	bytes := src.Rows * src.Cols * 8
	d.transfers++
	d.bytesMoved += int64(bytes)
	if d.Mode == Real && !d.dead && src.Rows > 0 && src.Cols > 0 {
		for j := 0; j < src.Cols; j++ {
			copy(dst.ptr(di, dj+j)[:src.Rows], src.Col(j))
		}
	}
	cost := d.Params.Transfer(bytes)
	d.charge(kindH2D, cost)
	e := d.Copy.Schedule(cost, d.enqueue(deps))
	d.record(d.Copy.Name(), kindH2D, e.At, cost)
	return e
}

// D2H synchronously copies an r×c block at (si, sj) of the device matrix
// src into the host matrix dst.
func (d *Device) D2H(dst *matrix.Matrix, src *Matrix, si, sj int) {
	e := d.D2HAsync(dst, src, si, sj)
	d.Sync(e)
}

// D2HAsync enqueues the device→host copy on the copy stream. This is the
// transfer the paper overlaps with the trailing-matrix update (the two red
// lines of Algorithm 2/3).
func (d *Device) D2HAsync(dst *matrix.Matrix, src *Matrix, si, sj int, deps ...sim.Event) sim.Event {
	d.checkRange("D2H", src, si, sj, dst.Rows, dst.Cols)
	bytes := dst.Rows * dst.Cols * 8
	d.transfers++
	d.bytesMoved += int64(bytes)
	if d.Mode == Real && dst.Rows > 0 && dst.Cols > 0 {
		if d.dead {
			d.fillNaN(dst)
		} else {
			for j := 0; j < dst.Cols; j++ {
				copy(dst.Col(j), src.ptr(si, sj+j)[:dst.Rows])
			}
		}
	}
	cost := d.Params.Transfer(bytes)
	d.charge(kindD2H, cost)
	e := d.Copy.Schedule(cost, d.enqueue(deps))
	d.record(d.Copy.Name(), kindD2H, e.At, cost)
	d.tagFlowOut(e.At)
	return e
}

// fillNaN poisons a host destination buffer, modeling a read from a dead
// device's unmapped memory.
func (d *Device) fillNaN(dst *matrix.Matrix) {
	nan := math.NaN()
	for j := 0; j < dst.Cols; j++ {
		col := dst.Col(j)
		for i := range col {
			col[i] = nan
		}
	}
}

// D2HTail copies a device block to the host through device-mapped memory
// at the tail of the current kernel stream (SetStream; the compute queue
// by default): the read is issued into that stream like a kernel and
// charged there, not on the copy engine. Detection verdicts and the
// single-device diskless checkpoint ride here so that they serialize
// naturally behind the update kernels that produce their data without
// occupying the copy FIFO — an async copy that depended on the whole
// trailing update would make every later transfer (the next panel
// offload in particular) queue behind it and destroy the overlap. The
// model assumes a mapped read does not contend with the copy engine for
// PCIe bandwidth: a transfer on the copy stream at the same time is
// charged in full as well.
func (d *Device) D2HTail(dst *matrix.Matrix, src *Matrix, si, sj int, deps ...sim.Event) sim.Event {
	d.checkRange("D2H", src, si, sj, dst.Rows, dst.Cols)
	bytes := dst.Rows * dst.Cols * 8
	d.transfers++
	d.bytesMoved += int64(bytes)
	if d.Mode == Real && dst.Rows > 0 && dst.Cols > 0 {
		if d.dead {
			d.fillNaN(dst)
		} else {
			for j := 0; j < dst.Cols; j++ {
				copy(dst.Col(j), src.ptr(si, sj+j)[:dst.Rows])
			}
		}
	}
	cost := d.Params.Transfer(bytes)
	t := d.current()
	if t == d.stretched {
		cost *= d.stretch
	}
	d.charge(kindD2H, cost)
	e := t.Schedule(cost, d.enqueue(deps))
	d.record(t.Name(), kindD2H, e.At, cost)
	return e
}

func (d *Device) checkRange(op string, m *Matrix, i, j, r, c int) {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("gpu: %s block (%d,%d)+%dx%d out of %dx%d", op, i, j, r, c, m.Rows, m.Cols))
	}
}

// Sync blocks the host until the event completes (cudaEventSynchronize).
func (d *Device) Sync(e sim.Event) {
	d.Host.AdvanceTo(e.At)
	d.noteSync(e.At)
}

// DeviceSynchronize blocks the host until all device streams drain.
func (d *Device) DeviceSynchronize() {
	d.Host.AdvanceTo(sim.Makespan(d.Compute, d.Copy, d.Lookahead))
}

// HostOp charges cost seconds of CPU work and, in Real mode, runs f.
// The hybrid algorithms route every host-side BLAS call through this so
// that one code path serves both execution modes.
func (d *Device) HostOp(cost float64, f func()) {
	d.charge(kindHost, cost)
	e := d.Host.Schedule(cost)
	d.record(d.Host.Name(), kindHost, e.At, cost)
	d.claimFlowIn()
	if d.Mode == Real && f != nil {
		f()
	}
}

// Elapsed returns the simulated makespan so far.
func (d *Device) Elapsed() float64 {
	return sim.Makespan(d.Host, d.Compute, d.Copy, d.Lookahead)
}
