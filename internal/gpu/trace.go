package gpu

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Execution tracing: when enabled, every kernel, transfer, and host
// operation records its simulated (lane, kind, start, end) span, and the
// whole run can be exported in the Chrome trace-event format
// (chrome://tracing, Perfetto) — the visual counterpart of the paper's
// Figure 1/4 iteration diagrams. Async D2H copies additionally carry flow
// ids linking each copy to the host operation that consumes its data, so
// the panel-offload arrows of Algorithm 2/3 render as flow arrows.

// Span is one traced operation on a simulated lane. Phase is the
// algorithm phase its cost was charged under (Device.SetPhase; "" when
// none was set). FlowOut/FlowIn are non-zero when the span is the
// source/destination of a data-flow arrow (an async D2H copy and the
// host op consuming it). Slabs, when its issuer tagged the operation
// (TagSlabs), is the range [Slabs[0], Slabs[1]) of the pool slabs the
// operation touches; it is zero otherwise and stays out of the exports.
type Span struct {
	Lane    string  `json:"lane"`
	Kind    string  `json:"kind"`
	Phase   string  `json:"phase,omitempty"`
	Start   float64 `json:"start"` // seconds
	End     float64 `json:"end"`
	FlowOut int     `json:"flow_out,omitempty"`
	FlowIn  int     `json:"flow_in,omitempty"`
	Slabs   [2]int  `json:"-"`
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

// TagSlabs tags the span of the device's next operation with the slab
// range [lo, hi) it touches (see Span.Slabs). Schedule tests read the
// tags to pair an operation with the slabs whose ordering it must keep.
func (d *Device) TagSlabs(lo, hi int) { d.slabs = [2]int{lo, hi} }

// record accounts one charged operation to the metrics registry (always)
// and appends its span to the trace (when tracing), consuming the slab
// tag.
func (d *Device) record(lane string, kind opKind, end, cost float64) {
	d.account(kind, cost)
	slabs := d.slabs
	d.slabs = [2]int{}
	if !d.tracing {
		return
	}
	d.trace = append(d.trace, Span{Lane: lane, Kind: kindNames[kind], Phase: d.phase, Start: end - cost, End: end, Slabs: slabs})
}

// tagFlowOut marks the most recently recorded span as the source of a new
// data flow completing at instant at; the host op issued after the
// matching Sync becomes the flow's destination.
func (d *Device) tagFlowOut(at float64) {
	if !d.tracing || len(d.trace) == 0 {
		return
	}
	d.flowSeq++
	d.trace[len(d.trace)-1].FlowOut = d.flowSeq
	if d.flowByEvent == nil {
		d.flowByEvent = make(map[float64]int)
	}
	d.flowByEvent[at] = d.flowSeq
}

// noteSync moves a flow whose copy the host just waited on into the
// pending set; the next host op claims it as its FlowIn.
func (d *Device) noteSync(at float64) {
	if !d.tracing || d.flowByEvent == nil {
		return
	}
	if id, ok := d.flowByEvent[at]; ok {
		delete(d.flowByEvent, at)
		d.pendingFlowIn = append(d.pendingFlowIn, id)
	}
}

// claimFlowIn attaches the oldest pending flow to the most recently
// recorded span (a host op that just consumed synced data).
func (d *Device) claimFlowIn() {
	if !d.tracing || len(d.pendingFlowIn) == 0 || len(d.trace) == 0 {
		return
	}
	d.trace[len(d.trace)-1].FlowIn = d.pendingFlowIn[0]
	d.pendingFlowIn = d.pendingFlowIn[1:]
}

// RecordSpan appends a span timed outside the device — a device pool's
// main-host work — to the trace; a no-op unless tracing is enabled.
func (d *Device) RecordSpan(s Span) {
	if d.tracing {
		d.trace = append(d.trace, s)
	}
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
// ph:"s"/"f" flow events for each async D2H copy → consuming host op
// pair. A slice carries its span's phase as args.phase. Flow ids are per device, so spans merged from several devices
// must not both carry flows (pool host work runs on the main-host lane,
// which consumes none).
func ChromeEvents(pid int, process string, spans []Span, lanes []string) []ChromeEvent {
	tids := make(map[string]int, len(lanes))
	order := make([]string, 0, len(lanes))
	for _, lane := range lanes {
		tids[lane] = len(order)
		order = append(order, lane)
	}
	// Only emit flow starts whose consuming span exists: a copy whose data
	// no host op ever claimed (e.g. the final cleanup transfer) would
	// otherwise leave a dangling arrow start.
	claimed := make(map[int]bool)
	for _, s := range spans {
		if _, ok := tids[s.Lane]; !ok {
			tids[s.Lane] = len(order)
			order = append(order, s.Lane)
		}
		if s.FlowIn != 0 {
			claimed[s.FlowIn] = true
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
		if s.FlowOut != 0 && claimed[s.FlowOut] {
			events = append(events, ChromeEvent{Name: "d2h", Ph: "s", Cat: "dataflow",
				Ts: mid, Pid: pid, Tid: tid, ID: s.FlowOut})
		}
		if s.FlowIn != 0 {
			events = append(events, ChromeEvent{Name: "d2h", Ph: "f", Cat: "dataflow", Bp: "e",
				Ts: mid, Pid: pid, Tid: tid, ID: s.FlowIn})
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
