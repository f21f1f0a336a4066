package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Request-scoped tracing: every served job gets a trace ID and a Tracer
// collecting wall-clock spans of its lifecycle (queued, lease wait, the
// reduction itself), parented so the Chrome-trace export nests them. The
// simulated device timeline is a *separate* clock — the per-job trace
// renders it as a second process next to the wall-clock lifecycle lanes
// (see internal/serve) rather than pretending the two are alignable.
//
// TraceContext is the handle threaded through the whole stack
// (serve → core → hybrid → ft → devpool → gpu): it names the job
// every metric series, journal record, and flight-recorder event should
// be attributed to. All of it is nil-safe, so instrumented code needs no
// conditionals and the instrumentation-off serving mode simply passes
// nil.

// TraceID returns a fresh 16-hex-digit trace identifier.
func TraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the supported platforms; degrade to a
		// time-derived id rather than panicking in a serving path.
		now := time.Now().UnixNano()
		for i := range b {
			b[i] = byte(now >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// SpanID identifies one span within a Tracer; 0 is "no span" (the root's
// parent, and the return of every call on a nil or full Tracer).
type SpanID int

// TSpan is one wall-clock span. End is zero while the span is open.
type TSpan struct {
	ID     SpanID    `json:"id"`
	Parent SpanID    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end,omitempty"`
}

// maxTracerSpans bounds one tracer; a trace is a per-request artifact,
// not an unbounded log, and a misbehaving instrumentation site must not
// grow a job's memory without limit.
const maxTracerSpans = 4096

// Tracer collects the parented wall-clock spans of one trace. All
// methods are safe for concurrent use and on a nil receiver.
type Tracer struct {
	mu    sync.Mutex
	id    string
	spans []TSpan
}

// NewTracer starts an empty tracer for the given trace ID.
func NewTracer(id string) *Tracer { return &Tracer{id: id} }

// ID reports the trace ID ("" on nil).
func (t *Tracer) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start opens a span under parent (0 for a root) and returns its ID.
func (t *Tracer) Start(name string, parent SpanID) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxTracerSpans {
		return 0
	}
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, TSpan{ID: id, Parent: parent, Name: name, Start: time.Now()})
	return id
}

// End closes the span (no-op for id 0, an unknown id, or a nil tracer).
func (t *Tracer) End(id SpanID) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) > len(t.spans) {
		return
	}
	sp := &t.spans[id-1]
	if sp.End.IsZero() {
		sp.End = time.Now()
	}
}

// Spans returns a copy of all spans in start order.
func (t *Tracer) Spans() []TSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TSpan(nil), t.spans...)
}

// TraceContext carries the per-request observability identity through
// the reduction stack. A nil *TraceContext disables request scoping
// (every accessor degrades to the zero value).
type TraceContext struct {
	// Job is the request/job identifier; when non-empty, every metric
	// series the run emits carries a job=<Job> label and every journal
	// record is stamped with it.
	Job string
	// Tracer receives wall-clock lifecycle spans (may be nil).
	Tracer *Tracer
	// Parent is the span the next layer down should parent its spans
	// under (the serve layer points it at the job's "run" span).
	Parent SpanID
}

// ParentSpan reports the parent span deeper layers should nest under
// (0 on nil).
func (tc *TraceContext) ParentSpan() SpanID {
	if tc == nil {
		return 0
	}
	return tc.Parent
}

// JobID reports the job identifier ("" on nil).
func (tc *TraceContext) JobID() string {
	if tc == nil {
		return ""
	}
	return tc.Job
}

// Span opens a span on the context's tracer (0 without one).
func (tc *TraceContext) Span(name string, parent SpanID) SpanID {
	if tc == nil {
		return 0
	}
	return tc.Tracer.Start(name, parent)
}

// EndSpan closes a span opened with Span.
func (tc *TraceContext) EndSpan(id SpanID) {
	if tc == nil {
		return
	}
	tc.Tracer.End(id)
}
