package serve

import (
	"encoding/json"
	"io"
	"time"

	"repro/internal/gpu"
)

// Per-job Chrome trace export (GET /v1/jobs/{id}/trace): one trace-event
// JSON array combining two processes that deliberately run on different
// clocks —
//
//	pid 1 "job lifecycle (wall clock)": the tracer's parented wall-clock
//	  spans (queued → run → lease / layer spans), µs since the root span
//	  opened;
//	pid 2 "simulated device timeline": the gpu.Span records of every
//	  traced device the job ran on, µs of simulated time.
//
// The two timelines are not alignable (one is real time, one is the cost
// model's clock), so the export keeps them as separate processes instead
// of pretending otherwise; chrome://tracing and Perfetto render them as
// two process groups.

// writeChromeTrace renders the terminal job's trace. The caller has
// checked j.tracer != nil and that the job is terminal (simSpans is
// written before the state turns terminal, so reading it here is safe).
func writeChromeTrace(w io.Writer, j *Job) error {
	spans := j.tracer.Spans()
	events := make([]gpu.ChromeEvent, 0, len(spans)+len(j.simSpans)+8)
	events = append(events,
		gpu.ChromeEvent{Name: "process_name", Ph: "M", Pid: 1,
			Args: map[string]any{"name": "job lifecycle (wall clock)"}},
		gpu.ChromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: 0,
			Args: map[string]any{"name": "lifecycle"}},
	)

	var t0 time.Time
	if len(spans) > 0 {
		t0 = spans[0].Start
	}
	// An open span (the root of a job forgotten mid-flight can't occur —
	// the handler refuses non-terminal jobs — but a layer that failed to
	// close is conceivable) clamps to the latest end seen.
	var tMax time.Time
	for _, sp := range spans {
		if sp.End.After(tMax) {
			tMax = sp.End
		}
	}
	for _, sp := range spans {
		end := sp.End
		if end.IsZero() {
			end = tMax
		}
		events = append(events, gpu.ChromeEvent{
			Name: sp.Name, Ph: "X",
			Ts:  float64(sp.Start.Sub(t0)) / float64(time.Microsecond),
			Dur: float64(end.Sub(sp.Start)) / float64(time.Microsecond),
			Pid: 1, Tid: 0,
			Args: map[string]any{"span": int(sp.ID), "parent": int(sp.Parent),
				"trace_id": j.traceID},
		})
	}

	if len(j.simSpans) > 0 {
		// One Chrome thread per lane in first-appearance order (lane names
		// are device-prefixed on pooled devices, so multi-device jobs get
		// distinct rows per device, and a pool's main-host row).
		events = append(events, gpu.ChromeEvents(2, "simulated device timeline", j.simSpans, nil)...)
	}
	return json.NewEncoder(w).Encode(events)
}

// TraceID exposes the job's trace identifier ("" in ObserveSLO mode).
func (j *Job) TraceID() string { return j.traceID }
