package sim

// Discrete-event timelines for the hybrid execution: one host timeline and
// one timeline per device stream. The algorithms enqueue operations with a
// duration and optional event dependencies; the timelines compute start
// times under stream FIFO ordering, exactly like CUDA stream semantics,
// so that overlap (or its absence) shows up in the simulated makespan.

// Event marks the completion instant of an asynchronous operation.
type Event struct {
	// At is the simulated completion time in seconds.
	At float64
	// Op is the id of the recorded operation that completes at At (see
	// gpu.Span), negative for a join of several (gpu.Device.Join); zero
	// when none was recorded.
	Op int
}

// Timeline is a FIFO execution lane (the host, or one device stream).
type Timeline struct {
	name string
	tail float64
	busy float64 // accumulated busy seconds, for utilization reporting
	ops  int64   // number of scheduled operations
}

// NewTimeline returns an empty timeline with the given display name.
func NewTimeline(name string) *Timeline {
	return &Timeline{name: name}
}

// Name returns the timeline's display name.
func (t *Timeline) Name() string { return t.name }

// Tail returns the completion time of the last scheduled operation.
func (t *Timeline) Tail() float64 { return t.tail }

// Busy returns the accumulated busy time.
func (t *Timeline) Busy() float64 { return t.busy }

// Ops returns the number of operations scheduled so far.
func (t *Timeline) Ops() int64 { return t.ops }

// Utilization returns the busy fraction of the given makespan, in [0, 1];
// zero when the makespan is zero.
func (t *Timeline) Utilization(makespan float64) float64 {
	if makespan <= 0 {
		return 0
	}
	return t.busy / makespan
}

// Schedule places an operation of the given duration on the timeline,
// starting no earlier than the timeline's tail and the instant ready,
// when its dependencies have completed. It returns the operation's start
// and its completion event.
func (t *Timeline) Schedule(duration, ready float64) (float64, Event) {
	start := t.tail
	if ready > start {
		start = ready
	}
	end := start + duration
	t.tail = end
	t.busy += duration
	t.ops++
	return start, Event{At: end}
}

// AdvanceTo moves the timeline's tail forward to at least instant;
// used when the host blocks on an event (synchronize).
func (t *Timeline) AdvanceTo(instant float64) {
	if instant > t.tail {
		t.tail = instant
	}
}

// Makespan returns the maximum tail across the given timelines — the
// simulated wall-clock of the whole run.
func Makespan(lanes ...*Timeline) float64 {
	m := 0.0
	for _, l := range lanes {
		if l.tail > m {
			m = l.tail
		}
	}
	return m
}
