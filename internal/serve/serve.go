// Package serve is the job-serving layer: a bounded scheduler plus an
// HTTP API (stdlib net/http only) that runs Hessenberg / tridiagonal
// reductions as asynchronous jobs. Capacity bounds how many reductions
// run concurrently, a FIFO queue of fixed depth absorbs bursts, and
// everything beyond that is rejected immediately with 429 — the
// backpressure contract a shared reduction service needs so one client
// cannot wedge the simulated device farm.
//
// Cancellation is first-class: DELETE aborts a queued or running job, and
// a running reduction observes its context within one blocked iteration
// (see core.Options.Ctx), so the capacity slot comes back promptly and no
// goroutine outlives its job. Shutdown stops intake, cancels the queue,
// drains in-flight reductions under a deadline, and cancels them if the
// deadline passes.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Submission failure modes, surfaced by the HTTP layer as 429 / 503.
var (
	// ErrQueueFull means capacity and the wait queue are both exhausted.
	ErrQueueFull = errors.New("serve: job queue is full")
	// ErrDraining means the server is shutting down and rejects new work.
	ErrDraining = errors.New("serve: server is draining")
	// ErrDeviceRequest means the job asked for devices the server cannot
	// ever grant (no farm, or more than the farm holds) — a client error,
	// surfaced as 400.
	ErrDeviceRequest = errors.New("serve: invalid device request")
	// ErrBatchRequest means the job carried a batch on a server whose
	// throughput engine is disabled (Config.DeviceLanes == 0) — a client
	// error, surfaced as 400.
	ErrBatchRequest = errors.New("serve: invalid batch request")
)

// Observation levels (Config.Observe). Both keep the SLO metrics and
// the flight recorder's job lifecycle events; "full" adds the per-job
// artifacts with their per-request cost.
const (
	// ObserveFull (the default) gives every job a trace ID, a wall-clock
	// tracer, a stamped FT journal teed into the flight recorder, and
	// job=<id> labels on the metric series its reduction emits.
	ObserveFull = "full"
	// ObserveSLO keeps only the request-anonymous telemetry: SLO
	// histograms, aggregate counters, lifecycle flight events. Jobs have
	// no trace, no journal, and emit unlabeled reduction series — the
	// comparison arm of the instrumentation-overhead benchmark.
	ObserveSLO = "slo"
)

// Config sizes a Server. Zero values pick the defaults.
type Config struct {
	// Capacity is the number of reductions that may run concurrently
	// (default 2).
	Capacity int
	// QueueDepth is how many accepted jobs may wait beyond Capacity
	// before submissions get 429 (default 16).
	QueueDepth int
	// MaxN caps the matrix order a request may ask for (default 4096).
	MaxN int
	// MaxBodyBytes caps the request body, uploads included
	// (default 8 MiB).
	MaxBodyBytes int64
	// Devices sizes the simulated device farm jobs lease from. When > 0,
	// a job may request `devices: K` (K ≤ Devices): it leases K whole
	// devices before running — so two jobs asking for disjoint subsets
	// run concurrently, while a job asking for more than is currently
	// free waits on the lease, not on a capacity slot timeout. 0 (the
	// default) disables leasing; every device job builds its own
	// un-pooled device as before.
	Devices int
	// Registry receives the serve_* metrics and the per-run reduction
	// metrics of every job (a fresh registry if nil). Exposed at /metrics.
	Registry *obs.Registry
	// Observe selects the observation level: ObserveFull (default) or
	// ObserveSLO.
	Observe string
	// FlightRecorderSize is the event capacity of the FT flight recorder
	// dumped at /debug/events (default 256).
	FlightRecorderSize int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// handler. Off by default: the profiler exposes internals and should
	// only face operators.
	EnablePprof bool
	// DeviceLanes, when > 0, enables the batched throughput engine
	// (DESIGN.md §15): each farm device exposes this many fractional
	// lanes, and requests may carry a `batch` of small reductions that
	// are packed by (N, nb) onto leased lanes with a virtual clock over
	// the shared compute/DMA engines. The lane farm spans max(1, Devices)
	// physical devices. 0 disables batched jobs (400 at submit).
	DeviceLanes int
	// CacheEntries, when > 0, bounds the digest-keyed result cache:
	// fault-free runs are cached under core.ResultKey (the canonical
	// input digest plus every reduction option), so a hit returns exactly
	// what a miss would apart from id and cached, with single-flight
	// coalescing of concurrent identical submissions. 0 disables caching.
	CacheEntries int
	// AgingAfter is the fair-queue starvation bound: a queued job whose
	// class has been starved longer than this is served out of weighted
	// order, at most once per interval (default 2s).
	AgingAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxN <= 0 {
		c.MaxN = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Observe == "" {
		c.Observe = ObserveFull
	}
	if c.FlightRecorderSize <= 0 {
		c.FlightRecorderSize = 256
	}
	if c.AgingAfter <= 0 {
		c.AgingAfter = 2 * time.Second
	}
	return c
}

// Server owns the job table and the worker pool. Create with New, wire
// Handler into an http.Server, and call Shutdown to drain.
type Server struct {
	cfg Config
	reg *obs.Registry

	mu       sync.Mutex
	jobs     map[string]*Job
	nextID   int
	queue    *batch.Queue[*Job]
	inflight int
	draining bool

	// Throughput engine (nil when Config.DeviceLanes == 0) and result
	// cache (nil when Config.CacheEntries == 0) — independent features:
	// single jobs use the cache without the engine.
	engine *batch.Engine
	cache  *batch.Cache

	cCacheHit      *obs.Counter
	cCacheMiss     *obs.Counter
	cCacheCoalesce *obs.Counter

	wg        sync.WaitGroup
	drainOnce sync.Once

	gQueue    *obs.Gauge
	gInflight *obs.Gauge
	hSeconds  *obs.Histogram

	// SLO telemetry: end-to-end job duration by outcome, time spent in
	// the FIFO queue, time spent waiting on a device lease.
	hQueueWait *obs.Histogram
	hLeaseWait *obs.Histogram

	// recorder is the bounded FT flight recorder: job lifecycle
	// transitions plus (in ObserveFull) every journaled FT event, dumped
	// at /debug/events.
	recorder *obs.FlightRecorder

	// Device farm (nil when Config.Devices == 0): devCh holds the free
	// device indices; leaseMu serializes multi-device acquisition so two
	// partial leases can never deadlock against each other.
	devCh   chan int
	leaseMu chan struct{}
	gLeased *obs.Gauge
	gFree   *obs.Gauge

	// Test seams (nil outside tests): observe slot occupancy and mutate
	// the per-job reduction options (e.g. to install a blocking hook).
	testBeforeRun     func(j *Job)
	testAfterRun      func(j *Job)
	testMutateOptions func(j *Job, opt *core.Options)
}

// New builds a Server and starts its Capacity worker goroutines.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		reg:  cfg.Registry,
		jobs: make(map[string]*Job),
		// The fair queue replaces the FIFO channel: interactive traffic
		// weighs 4× batch traffic, with the aging override bounding batch
		// starvation (see batch.Queue).
		queue: batch.NewQueue[*Job](cfg.QueueDepth,
			map[string]float64{batch.ClassInteractive: 4, batch.ClassBatch: 1},
			cfg.AgingAfter),
		gQueue:    cfg.Registry.Gauge("serve_queue_depth"),
		gInflight: cfg.Registry.Gauge("serve_inflight"),
		hSeconds: cfg.Registry.Histogram("serve_job_seconds",
			[]float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600}),
		hQueueWait: cfg.Registry.Histogram("serve_queue_wait_seconds",
			[]float64{0.001, 0.01, 0.05, 0.25, 1, 5, 30, 120}),
		hLeaseWait: cfg.Registry.Histogram("serve_lease_wait_seconds",
			[]float64{0.001, 0.01, 0.05, 0.25, 1, 5, 30, 120}),
		recorder: obs.NewFlightRecorder(cfg.FlightRecorderSize),
	}
	if cfg.Devices > 0 {
		s.devCh = make(chan int, cfg.Devices)
		for i := 0; i < cfg.Devices; i++ {
			s.devCh <- i
		}
		s.leaseMu = make(chan struct{}, 1)
		s.gLeased = cfg.Registry.Gauge("serve_devices_leased")
		s.gFree = cfg.Registry.Gauge("serve_devices_free")
		s.gFree.Set(float64(cfg.Devices))
	}
	if cfg.CacheEntries > 0 {
		s.cache = batch.NewCache(cfg.CacheEntries)
		s.cCacheHit = cfg.Registry.Counter("serve_cache_hits_total")
		s.cCacheMiss = cfg.Registry.Counter("serve_cache_misses_total")
		s.cCacheCoalesce = cfg.Registry.Counter("serve_cache_coalesced_total")
	}
	if cfg.DeviceLanes > 0 {
		farmDevs := cfg.Devices
		if farmDevs < 1 {
			farmDevs = 1
		}
		s.engine = batch.NewEngine(batch.NewFarm(farmDevs, cfg.DeviceLanes), s.cache, cfg.Registry)
	}
	s.wg.Add(cfg.Capacity)
	for i := 0; i < cfg.Capacity; i++ {
		go s.worker()
	}
	return s
}

// Registry exposes the server's metrics registry (for /metrics and tests).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Submit enqueues a validated request. a is its parsed upload, or nil
// for an input the worker materializes (req.Matrix) when the job starts;
// either way the job drops its input once it is terminal. Submit never
// blocks: the job is accepted into the FIFO queue or rejected with
// ErrQueueFull / ErrDraining. The returned status is snapshotted under
// the same lock that enqueues the job, so it always reads queued: a worker
// cannot lease the job before the caller sees it.
func (s *Server) Submit(req *JobRequest, a *matrix.Matrix) (JobStatus, error) {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		req: req, a: a,
		ctx: ctx, cancel: cancel,
		state:   StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	if req.Devices > 0 {
		if s.cfg.Devices == 0 {
			cancel()
			return JobStatus{}, fmt.Errorf("%w: this server has no device farm (devices=%d)", ErrDeviceRequest, req.Devices)
		}
		if req.Devices > s.cfg.Devices {
			cancel()
			return JobStatus{}, fmt.Errorf("%w: devices=%d exceeds the farm size %d", ErrDeviceRequest, req.Devices, s.cfg.Devices)
		}
	}
	if len(req.Batch) > 0 && s.engine == nil {
		cancel()
		return JobStatus{}, fmt.Errorf("%w: this server has no throughput engine (device_lanes=0)", ErrBatchRequest)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		cancel()
		s.jobCounter("rejected_draining").Inc()
		return JobStatus{}, ErrDraining
	}
	// Fairness is over work, not job count: a batched job's cost is its
	// item count.
	switch err := s.queue.Push(req.class(), float64(max(1, len(req.Batch))), j); {
	case errors.Is(err, batch.ErrQueueClosed):
		cancel()
		s.jobCounter("rejected_draining").Inc()
		return JobStatus{}, ErrDraining
	case err != nil:
		cancel()
		s.jobCounter("rejected_full").Inc()
		return JobStatus{}, ErrQueueFull
	}
	s.nextID++
	j.ID = fmt.Sprintf("j%d", s.nextID)
	s.jobs[j.ID] = j
	if s.cfg.Observe == ObserveFull {
		// Request-scoped observability: a trace with the lifecycle root
		// span already open, and a journal that stamps every FT event with
		// the job ID and tees it into the flight recorder.
		j.traceID = obs.TraceID()
		j.tracer = obs.NewTracer(j.traceID)
		j.spanRoot = j.tracer.Start("job "+j.ID, 0)
		j.spanQueued = j.tracer.Start("queued", j.spanRoot)
		j.journal = obs.NewJournal()
		j.journal.Stamp(j.ID)
		j.journal.Tee(s.recorder)
	}
	s.recorder.Record(obs.FlightEvent{Kind: "job:queued", Job: j.ID})
	s.gQueue.Add(1)
	s.jobCounter("accepted").Inc()
	return j.statusLocked(), nil
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel aborts the job: a queued job terminates immediately, a running
// one observes its context within one blocked iteration. Finished jobs
// are removed from the table instead. The returned state is the job's
// state after the call; ok is false for unknown IDs.
func (s *Server) Cancel(id string) (state string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return "", false
	}
	switch j.state {
	case StateQueued:
		// The job stays in the channel; the worker that pops it sees the
		// terminal state and skips it.
		s.finishLocked(j, nil, context.Canceled)
		s.gQueue.Add(-1)
	case StateRunning:
		j.cancel()
	default:
		// Forgetting a finished job also retires its job-labeled metric
		// series, so registry cardinality tracks the live job table.
		delete(s.jobs, id)
		s.pruneJob(id)
	}
	return j.state, true
}

// Shutdown stops intake, discards still-queued jobs (they report
// cancelled), and waits for in-flight reductions to finish. If ctx
// expires first the in-flight jobs are cancelled — they unwind within one
// blocked iteration — and Shutdown still waits for the workers to exit
// before returning ctx.Err(), so no job goroutine outlives the call.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		for _, j := range s.jobs {
			if j.state == StateQueued {
				s.finishLocked(j, nil, context.Canceled)
				s.gQueue.Add(-1)
			}
		}
		s.queue.Close()
		s.mu.Unlock()
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.state == StateRunning {
				j.cancel()
			}
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun (readiness probe).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.run(j)
	}
}

func (s *Server) run(j *Job) {
	s.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while waiting; the slot goes straight to the next job.
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	a := j.a
	j.started = time.Now()
	j.queueWait = j.started.Sub(j.created)
	s.gQueue.Add(-1)
	s.inflight++
	s.gInflight.Add(1)
	s.mu.Unlock()
	s.hQueueWait.Observe(j.queueWait.Seconds())
	j.tracer.End(j.spanQueued)
	j.spanRun = j.tracer.Start("run", j.spanRoot)
	s.recorder.Record(obs.FlightEvent{Kind: "job:running", Job: j.ID})

	if s.testBeforeRun != nil {
		s.testBeforeRun(j)
	}
	res, err := s.execute(j, a)

	j.tracer.End(j.spanRun)
	s.mu.Lock()
	s.inflight--
	s.gInflight.Add(-1)
	s.finishLocked(j, res, err)
	s.mu.Unlock()
	s.hSeconds.Observe(time.Since(j.started).Seconds())

	if s.testAfterRun != nil {
		s.testAfterRun(j)
	}
}

// finishLocked moves a job to its terminal state and drops its input;
// the caller holds s.mu.
func (s *Server) finishLocked(j *Job, res *JobResult, err error) {
	j.result, j.err = res, err
	j.a = nil
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCancelled
	default:
		j.state = StateFailed
	}
	j.cancel()
	close(j.done)
	j.tracer.End(j.spanRoot)
	// SLO outcome label: a job that lost a device and finished anyway is
	// its own class — "done" would hide the restart cost in the healthy
	// latency distribution, "failed" would be a lie.
	outcome := j.state
	if err == nil && res != nil && res.FailStopRecoveries > 0 {
		outcome = "recovered_failstop"
	}
	s.jobCounter(outcome).Inc()
	if isUncorrectable(err) {
		s.reg.Counter("serve_jobs_uncorrectable_total").Inc()
	}
	fe := obs.FlightEvent{Kind: "job:" + j.state, Job: j.ID}
	if err != nil {
		fe.Detail = err.Error()
	} else if outcome == "recovered_failstop" {
		fe.Detail = fmt.Sprintf("recovered from %d device loss(es)", res.DeviceLosses)
	}
	s.recorder.Record(fe)
	// The SLO duration histogram covers executed jobs only; a job
	// cancelled while still queued never ran and has no duration.
	if !j.started.IsZero() {
		s.reg.Histogram("serve_job_duration_seconds",
			[]float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600},
			obs.L("outcome", outcome)).Observe(j.finished.Sub(j.started).Seconds())
	}
}

func (s *Server) jobCounter(status string) *obs.Counter {
	return s.reg.Counter("serve_jobs_total", obs.L("status", status))
}

// leaseDevices blocks until k farm devices are free and returns their
// indices. Acquisition is serialized (leaseMu), so a job collecting a
// multi-device lease never interleaves with another partial lease —
// releases only come from running jobs, which hold no lease lock, so the
// head acquirer always drains the channel without deadlock. Cancelling
// the context returns any partially collected indices to the farm.
func (s *Server) leaseDevices(ctx context.Context, k int) ([]int, error) {
	select {
	case s.leaseMu <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.leaseMu }()
	idx := make([]int, 0, k)
	for len(idx) < k {
		select {
		case i := <-s.devCh:
			idx = append(idx, i)
		case <-ctx.Done():
			s.releaseDevices(idx)
			return nil, ctx.Err()
		}
	}
	s.gLeased.Add(float64(k))
	s.gFree.Add(-float64(k))
	return idx, nil
}

func (s *Server) releaseDevices(idx []int) {
	for _, i := range idx {
		s.devCh <- i
	}
}

// isUncorrectable reports whether the job died because the FT machinery
// could not repair a detected error (either reduction family).
func isUncorrectable(err error) bool {
	return errors.Is(err, ft.ErrUncorrectable)
}

// pruneJob retires every job-labeled metric series a forgotten job left
// in the shared registry, keeping series cardinality bounded by the live
// job table instead of the server's lifetime.
func (s *Server) pruneJob(id string) {
	s.reg.Prune(func(_ string, labels map[string]string) bool {
		return labels["job"] == id
	})
}

// traceContext builds the request-scoped observability handle handed to
// the reduction stack (nil in ObserveSLO mode: no job labels, no spans).
func (j *Job) traceContext() *obs.TraceContext {
	if j.tracer == nil {
		return nil
	}
	return &obs.TraceContext{Job: j.ID, Tracer: j.tracer, Parent: j.spanRun}
}

// runOptions builds the reduction options a request asks for at block
// size nb: every option that decides what is computed or modeled. The
// callers add the per-call plumbing (context, observability, devices).
// Building them in one place is what lets core.ResultKey key the cache.
func runOptions(req *JobRequest, nb int) core.Options {
	opt := core.Options{
		NB:                 nb,
		CostOnly:           req.CostOnly,
		ThresholdFactor:    req.ThresholdFactor,
		FinalHCheck:        req.FinalHCheck,
		DisableQProtection: req.DisableQProtection,
		DisableOverlap:     req.DisableOverlap,
		DisableLookahead:   req.Lookahead != nil && !*req.Lookahead,
		Substrate:          req.Substrate,
		DeviceCount:        req.Devices,
	}
	switch req.algorithm() {
	case AlgBaseline:
		opt.Algorithm = core.Baseline
	case AlgCPU:
		opt.Algorithm = core.CPUOnly
	default:
		opt.Algorithm = core.FaultTolerant
	}
	if len(req.Faults) > 0 {
		plans := make([]fault.Plan, len(req.Faults))
		for i, f := range req.Faults {
			plans[i] = f.plan()
		}
		opt.Hook = fault.NewSchedule(plans...)
	}
	return opt
}

// cacheable reports whether a finished run may enter the cache: nothing
// was detected, corrected, or lost. Runs with a fault hook have no cache
// key at all (core.ResultKey); this guards the residue — a run that saw
// any FT event is never cached, however it finished.
func cacheable(res *core.Result) bool {
	return res.Detections == 0 && res.Recoveries == 0 && len(res.CorrectedH) == 0 &&
		res.QCorrections == 0 && res.DeviceLosses == 0 && res.SubstrateDetections == 0
}

// reduceCached runs reduce, the reduction Reduce(a, opt), inside the
// result cache's single flight for that run. A hit, or a follower whose
// leader committed, returns the stored result with hit = true; a leader
// commits its own result when the run is cacheable. A follower whose
// leader aborted (failed, cancelled, uncacheable run) computes locally
// without taking a new flight, so a chain of cancellations can never
// convoy. Without a cache, or for a run with no key, it just reduces.
func (s *Server) reduceCached(ctx context.Context, req *JobRequest, a *matrix.Matrix, opt core.Options,
	reduce func() (*core.Result, error)) (run *cachedRun, hit bool, err error) {
	compute := func() (*cachedRun, *core.Result, error) {
		res, err := reduce()
		if err != nil {
			return nil, nil, err
		}
		return newCachedRun(req, a, res), res, nil
	}
	key, ok := "", s.cache != nil
	if ok {
		key, ok = core.ResultKey(a, opt)
	}
	if !ok {
		run, _, err := compute()
		return run, false, err
	}
	val, fl, st := s.cache.Acquire(batch.Key(key))
	switch st {
	case batch.Hit:
		s.cCacheHit.Inc()
		return val.(*cachedRun), true, nil
	case batch.Follow:
		s.cCacheCoalesce.Inc()
		v, ok, err := fl.Wait(ctx)
		if err != nil {
			return nil, false, err
		}
		if ok {
			s.cCacheHit.Inc()
			return v.(*cachedRun), true, nil
		}
		run, _, err := compute()
		return run, false, err
	}
	s.cCacheMiss.Inc()
	committed := false
	defer func() {
		if !committed {
			s.cache.Abort(fl)
		}
	}()
	run, res, err := compute()
	if err == nil && cacheable(res) {
		s.cache.Commit(fl, run)
		committed = true
	}
	return run, false, err
}

// execute runs the reduction for one job on the worker goroutine. a is
// the job's upload; a generated input is materialized here, so it lives
// only while the job runs.
func (s *Server) execute(j *Job, a *matrix.Matrix) (*JobResult, error) {
	req := j.req
	if len(req.Batch) > 0 {
		return s.executeBatch(j)
	}
	if a == nil {
		var err error
		if a, err = req.Matrix(s.cfg.MaxN); err != nil {
			return nil, err
		}
	}
	trace := j.traceContext()
	mode := gpu.Real
	if req.CostOnly {
		mode = gpu.CostOnly
	}
	if req.Symmetric {
		symOpt := core.SymOptions{
			Ctx: j.ctx, NB: req.NB,
			FaultTolerant: req.algorithm() == AlgFT,
			CostOnly:      req.CostOnly,
			Obs:           s.reg,
			Journal:       j.journal,
			Trace:         trace,
		}
		res, err := core.ReduceSym(a, symOpt)
		if err != nil {
			return nil, err
		}
		return symResult(j, a, res), nil
	}

	opt := runOptions(req, req.NB)
	opt.Ctx, opt.Obs, opt.Journal, opt.Trace = j.ctx, s.reg, j.journal, trace
	run, hit, err := s.reduceCached(j.ctx, req, a, opt, func() (*core.Result, error) {
		return s.reduceOnDevices(j, a, opt, mode)
	})
	if err != nil {
		return nil, err
	}
	return run.jobResult(j, hit), nil
}

// reduceOnDevices runs a single job's reduction on its own device, or on
// whole devices leased from the farm when the job asked for a pool.
func (s *Server) reduceOnDevices(j *Job, a *matrix.Matrix, opt core.Options, mode gpu.Mode) (*core.Result, error) {
	req := j.req
	trace := opt.Trace
	if opt.Algorithm != core.CPUOnly {
		if req.Devices > 0 {
			// Lease whole devices from the farm; the job blocks here (not
			// in the queue) until its subset is free, and returns it as
			// soon as the reduction finishes or is cancelled.
			leaseStart := time.Now()
			leaseSpan := trace.Span("lease", j.spanRun)
			idx, err := s.leaseDevices(j.ctx, req.Devices)
			trace.EndSpan(leaseSpan)
			lw := time.Since(leaseStart)
			s.mu.Lock()
			j.leaseWait = lw
			s.mu.Unlock()
			s.hLeaseWait.Observe(lw.Seconds())
			if err != nil {
				return nil, err
			}
			s.recorder.Record(obs.FlightEvent{Kind: "job:leased", Job: j.ID,
				Detail: fmt.Sprintf("%d devices", len(idx))})
			defer func() {
				s.gLeased.Add(-float64(len(idx)))
				s.gFree.Add(float64(len(idx)))
				s.releaseDevices(idx)
			}()
			devs := make([]*gpu.Device, len(idx))
			for i, ix := range idx {
				devs[i] = gpu.NewIndexed(sim.K40c(), mode, ix)
				if j.tracer != nil {
					devs[i].EnableTrace()
				}
			}
			opt.Devices = devs
			j.setDevice(devs[0])
			defer j.captureSimSpans(devs)
		} else {
			// A per-job device: its Phase() feeds the status endpoint while
			// the reduction runs.
			dev := gpu.New(sim.K40c(), mode)
			if j.tracer != nil {
				dev.EnableTrace()
			}
			opt.Device = dev
			j.setDevice(dev)
			defer j.captureSimSpans([]*gpu.Device{dev})
		}
	}
	if s.testMutateOptions != nil {
		s.testMutateOptions(j, &opt)
	}
	return core.Reduce(a, opt)
}
