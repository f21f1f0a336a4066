package gpu

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// Execution tracing: when enabled, every kernel, transfer and host
// operation records one span (see Device.op), and the whole run can be
// exported in the Chrome trace-event format (chrome://tracing, Perfetto)
// — the visual counterpart of the paper's Figure 1/4 iteration diagrams.
// A copy home that the host waited for is drawn as a flow arrow into the
// host op that consumed it, so the panel-offload arrows of Algorithm 2/3
// render as flow arrows.

// Span is the record of one modeled operation. ID is unique across the
// devices sharing an op log (one device, or a pool). Phase is the
// algorithm phase its cost was charged under (Device.SetPhase; "" when
// none was set). Start is the instant its lane's timeline started it and
// End = Start + cost. Deps lists the ids it waited on: its declared
// dependencies, then its issuing host's frontier — the host's last op
// and the ops the host waited on since (sync edges). With its lane
// predecessor, they are every op that orders its start. Region is the
// block it writes, or reads for a D2H.
type Span struct {
	ID     int     `json:"id"`
	Lane   string  `json:"lane"`
	Kind   string  `json:"kind"`
	Phase  string  `json:"phase,omitempty"`
	Start  float64 `json:"start"` // seconds
	End    float64 `json:"end"`
	Deps   []int   `json:"deps,omitempty"`
	Region Region  `json:"region"`
}

// opLog numbers the ops and allocations of the devices sharing it, and
// holds every record's Deps, and the members of every join, back to back
// in one arena, so recording an op allocates nothing once the arena and
// the trace have grown. joins[j] is the arena range of the join that
// events name by Op = −(j+1).
type opLog struct {
	last  int
	deps  []int
	joins [][2]int
}

// appendOps appends the ids of the ops e waits on to ids: its op, or the
// members of its join.
func (lg *opLog) appendOps(ids []int, e sim.Event) []int {
	switch {
	case e.Op > 0:
		ids = append(ids, e.Op)
	case e.Op < 0:
		j := lg.joins[-e.Op-1]
		ids = append(ids, lg.deps[j[0]:j[1]]...)
	}
	return ids
}

// Join returns the event of waiting on both a and b: the later instant
// and, when tracing, a join of both events' ops, which a record or a
// sync on it lists in full. Joining keeps every op an event stands for,
// where keeping only the later event's would lose the earlier one.
func (d *Device) Join(a, b sim.Event) sim.Event {
	if a.Op|b.Op != 0 {
		return d.join(a, b)
	}
	if b.At > a.At {
		return b
	}
	return a
}

// join is Join of events of which one at least stands for an op.
func (d *Device) join(a, b sim.Event) sim.Event {
	e := b
	if a.At > b.At {
		e.At = a.At
	}
	switch {
	case b.Op == 0 || b.Op == a.Op:
		e.Op = a.Op
	case a.Op != 0:
		lg := d.log
		lo := len(lg.deps)
		lg.deps = lg.appendOps(lg.appendOps(lg.deps, a), b)
		lg.joins = append(lg.joins, [2]int{lo, len(lg.deps)})
		e.Op = -len(lg.joins)
	}
	return e
}

// EnableTrace starts span recording (call before running an algorithm).
// The initial capacity absorbs a mid-size reduction without reallocating
// (a blocked run records a few thousand spans).
func (d *Device) EnableTrace() {
	d.trace = make([]Span, 0, 4096)
	d.tracing = true
}

// Trace returns the recorded spans.
func (d *Device) Trace() []Span {
	return d.trace
}

// record appends one op's span to the sink's trace and returns its id.
func (d *Device) record(lane string, kind opKind, start, end float64, reg Region, deps []sim.Event) int {
	lg := d.log
	lg.last++
	lo := len(lg.deps)
	for _, e := range deps {
		lg.deps = lg.appendOps(lg.deps, e)
	}
	lg.deps = append(lg.deps, d.front...)
	hi := len(lg.deps)
	d.sink.trace = append(d.sink.trace, Span{ID: lg.last, Lane: lane, Kind: kindNames[kind], Phase: d.phase,
		Start: start, End: end, Deps: lg.deps[lo:hi:hi], Region: reg})
	return lg.last
}

// Tracing reports whether span recording is enabled.
func (d *Device) Tracing() bool { return d.tracing }

// lanes returns the device's timeline names in trace order.
func (d *Device) lanes() []string {
	return []string{d.Host.Name(), d.Compute.Name(), d.Copy.Name(), d.Lookahead.Name()}
}

// WriteChromeTrace exports the recorded spans (see WriteChromeTrace).
func (d *Device) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, "fthess-sim", d.trace, d.lanes())
}

// TraceSummary prints the recorded spans' per-lane summary (see
// TraceSummary).
func (d *Device) TraceSummary(w io.Writer) {
	TraceSummary(w, d.trace, d.lanes())
}

// ChromeEvent is one record of the Chrome trace-event format.
type ChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeEvents lays spans out as Chrome process pid named process
// (timestamps in microseconds): ph:"M" metadata naming the process and
// one thread per lane — lanes first, in that order, then any other lane
// in first-appearance order — ph:"X" slices for the spans, and
// ph:"s"/"f" flow events, with the copy's id, for each copy home (a d2h
// span with a region) → host op that lists it among its deps. A slice
// carries its span's phase as args.phase.
func ChromeEvents(pid int, process string, spans []Span, lanes []string) []ChromeEvent {
	tids := make(map[string]int, len(lanes))
	order := make([]string, 0, len(lanes))
	for _, lane := range lanes {
		tids[lane] = len(order)
		order = append(order, lane)
	}
	copies := make(map[int]bool) // copy home id → consumed by a host op
	for _, s := range spans {
		if _, ok := tids[s.Lane]; !ok {
			tids[s.Lane] = len(order)
			order = append(order, s.Lane)
		}
		if s.Kind == "d2h" && s.Region.Alloc != 0 {
			copies[s.ID] = false
		}
	}
	for _, s := range spans {
		for _, id := range s.Deps {
			if _, ok := copies[id]; ok && s.Kind == "host" {
				copies[id] = true
			}
		}
	}

	events := make([]ChromeEvent, 0, len(spans)+len(order)+1)
	events = append(events, ChromeEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": process}})
	for _, lane := range order {
		events = append(events, ChromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tids[lane],
			Args: map[string]any{"name": lane}})
	}
	for _, s := range spans {
		tid := tids[s.Lane]
		x := ChromeEvent{Name: s.Kind, Ph: "X",
			Ts: s.Start * 1e6, Dur: (s.End - s.Start) * 1e6, Pid: pid, Tid: tid}
		if s.Phase != "" {
			x.Args = map[string]any{"phase": s.Phase}
		}
		events = append(events, x)
		mid := (s.Start + s.End) / 2 * 1e6
		if copies[s.ID] {
			events = append(events, ChromeEvent{Name: "d2h", Ph: "s", Cat: "dataflow",
				Ts: mid, Pid: pid, Tid: tid, ID: s.ID})
		}
		for _, id := range s.Deps {
			if copies[id] && s.Kind == "host" {
				events = append(events, ChromeEvent{Name: "d2h", Ph: "f", Cat: "dataflow", Bp: "e",
					Ts: mid, Pid: pid, Tid: tid, ID: id})
			}
		}
	}
	return events
}

// WriteChromeTrace encodes spans as one Chrome trace-event JSON array
// (chrome://tracing, Perfetto) of process 1 (see ChromeEvents).
func WriteChromeTrace(w io.Writer, process string, spans []Span, lanes []string) error {
	return json.NewEncoder(w).Encode(ChromeEvents(1, process, spans, lanes))
}

// TraceSummary prints one line per lane with span counts and busy time:
// lanes first, in that order, then any other recorded lane sorted.
func TraceSummary(w io.Writer, spans []Span, lanes []string) {
	type agg struct {
		count int
		busy  float64
	}
	byLane := map[string]*agg{}
	for _, s := range spans {
		a := byLane[s.Lane]
		if a == nil {
			a = &agg{}
			byLane[s.Lane] = a
		}
		a.count++
		a.busy += s.End - s.Start
	}
	known := make(map[string]bool, len(lanes))
	for _, lane := range lanes {
		known[lane] = true
	}
	var rest []string
	for lane := range byLane {
		if !known[lane] {
			rest = append(rest, lane)
		}
	}
	sort.Strings(rest)
	for _, lane := range append(lanes[:len(lanes):len(lanes)], rest...) {
		if a := byLane[lane]; a != nil {
			fmt.Fprintf(w, "  %-12s %6d spans, %.4fs busy\n", lane, a.count, a.busy)
		}
	}
}
