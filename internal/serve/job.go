package serve

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// Job states, as reported by GET /v1/jobs/{id}.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Job is one reduction request moving through the scheduler. All mutable
// fields are guarded by the owning Server's mutex, except the device
// pointer (atomic, so the status handler can read the live phase while
// the reduction runs) and the observability artifacts (journal/tracer
// are internally synchronized; simSpans is written once by the worker
// before the job turns terminal and read only after).
type Job struct {
	ID  string
	req *JobRequest
	// a is the parsed upload, dropped when the job turns terminal; nil
	// for a generated input, which the worker materializes at start.
	a *matrix.Matrix

	ctx    context.Context
	cancel context.CancelFunc

	dev atomic.Pointer[gpu.Device]

	// Request-scoped observability (nil/zero in ObserveSLO mode). The
	// tracer holds the wall-clock lifecycle spans; the journal collects
	// the run's FT events stamped with the job ID; simSpans is the
	// simulated device timeline captured when the reduction returns.
	traceID    string
	tracer     *obs.Tracer
	journal    *obs.Journal
	spanRoot   obs.SpanID
	spanQueued obs.SpanID
	spanRun    obs.SpanID
	simSpans   []gpu.Span

	// Guarded by Server.mu.
	state     string
	err       error
	result    *JobResult
	created   time.Time
	started   time.Time
	finished  time.Time
	queueWait time.Duration
	leaseWait time.Duration

	// done is closed when the job reaches a terminal state.
	done chan struct{}
}

func (j *Job) setDevice(d *gpu.Device) { j.dev.Store(d) }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// phase returns the reduction phase currently executing on the job's
// simulated device ("" before the device exists or for host-only paths).
func (j *Job) phase() string {
	if d := j.dev.Load(); d != nil {
		return d.Phase()
	}
	return ""
}

// captureSimSpans collects the simulated-timeline spans of every traced
// device the job ran on, in device order. It runs on the worker goroutine
// after the reduction returns and before the job turns terminal, so the
// trace handler (which refuses non-terminal jobs) never races it.
func (j *Job) captureSimSpans(devs []*gpu.Device) {
	if j.tracer == nil {
		return
	}
	if len(devs) == 1 {
		// The per-job device is dead after the run; adopt its buffer
		// instead of copying a quarter-megabyte of spans per job.
		j.simSpans = devs[0].Trace()
		return
	}
	var all []gpu.Span
	for _, d := range devs {
		all = append(all, d.Trace()...)
	}
	j.simSpans = all
}

// Reliability is the per-job FT summary in the status response: how often
// the run checked its checksums, what it detected, and what it repaired.
// Derived from the job's journal, so it is only present in ObserveFull
// mode and only non-zero on the fault-tolerant algorithms.
type Reliability struct {
	ChecksumChecks int `json:"checksum_checks"`
	Detections     int `json:"detections"`
	Corrections    int `json:"corrections"`
	Reexecutions   int `json:"reexecutions"`
	// Fail-stop events (multi-device "ft" jobs): permanent device deaths
	// and the restarts on the surviving devices that outlived them.
	DeviceLosses    int `json:"device_losses,omitempty"`
	Reconstructions int `json:"reconstructions,omitempty"`
	// Uncorrectable is true when the job failed because the FT machinery
	// found an error it could not repair.
	Uncorrectable bool `json:"uncorrectable,omitempty"`
}

// JobStatus is the wire form of GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Phase is the live reduction phase (e.g. "panel", "update") while
	// the job runs on the simulated device.
	Phase string `json:"phase,omitempty"`
	Error string `json:"error,omitempty"`
	// ErrorCode classifies terminal failures (see classify): e.g.
	// "uncorrectable", "detection_storm", "cancelled".
	ErrorCode string `json:"error_code,omitempty"`
	// TraceID names the job's trace (ObserveFull only); the full trace is
	// at GET /v1/jobs/{id}/trace once the job is terminal.
	TraceID  string `json:"trace_id,omitempty"`
	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	// QueueWaitSeconds / LeaseWaitSeconds report where a started job
	// spent its pre-run time (queue slot, device lease).
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
	LeaseWaitSeconds float64 `json:"lease_wait_seconds,omitempty"`
	// Reliability is the per-job FT event summary (ObserveFull only).
	Reliability *Reliability `json:"reliability,omitempty"`
	// Build identifies the binary serving this job (also at
	// GET /v1/version), so traces and artifacts record what produced
	// them.
	Build *BuildInfo `json:"build,omitempty"`
}

// reliability tallies the job's journal (live-safe: Events copies under
// the journal lock). Nil without a journal.
func (j *Job) reliability() *Reliability {
	if j.journal == nil {
		return nil
	}
	r := &Reliability{Uncorrectable: isUncorrectable(j.err)}
	for _, e := range j.journal.Events() {
		switch e.Kind {
		case obs.KindChecksumCheck:
			r.ChecksumChecks++
		case obs.KindDetection:
			r.Detections++
		case obs.KindCorrection:
			r.Corrections++
		case obs.KindReexecution:
			r.Reexecutions++
		case obs.KindDeviceLoss:
			r.DeviceLosses++
		case obs.KindReconstruction:
			r.Reconstructions++
		}
	}
	return r
}

// statusLocked snapshots the job; the caller holds Server.mu.
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID:      j.ID,
		State:   j.state,
		TraceID: j.traceID,
		Created: j.created.UTC().Format(time.RFC3339Nano),
	}
	if j.state == StateRunning {
		st.Phase = j.phase()
	}
	if j.err != nil {
		st.Error = j.err.Error()
		st.ErrorCode = classify(j.err).code
	}
	if !j.started.IsZero() {
		st.Started = j.started.UTC().Format(time.RFC3339Nano)
		st.QueueWaitSeconds = j.queueWait.Seconds()
		st.LeaseWaitSeconds = j.leaseWait.Seconds()
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	st.Reliability = j.reliability()
	build := Build()
	st.Build = &build
	return st
}
