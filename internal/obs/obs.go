// Package obs is the unified observability layer of the reproduction: a
// stdlib-only metrics registry (counters, gauges, fixed-bucket histograms
// with label support, Prometheus-style text exposition and JSON export)
// plus a structured journal of fault-tolerance events (journal.go).
//
// The paper's entire evaluation (Figures 2-6, Tables I-III) is about
// *observing* the FT-Hess pipeline — per-step protection overheads,
// detection and recovery counts, CPU/GPU overlap — so every layer of the
// stack feeds the same sinks: internal/gpu attributes each simulated
// kernel, transfer, and host operation to an operation family and to the
// algorithm phase the device is currently in; internal/hybrid and
// internal/ft mark those phases (panel, right update, left update, D2H
// overlap, and the FT protection steps); internal/ft and
// internal/fault append typed records to the event journal. One run then
// emits a coherent report: a metrics exposition, a JSONL journal, and a
// Chrome trace, all telling the same story.
//
// All sinks are optional and nil-safe: a nil *Registry or *Journal absorbs
// every call, so instrumented code needs no conditionals.
package obs

import (
	"sort"
	"strings"
	"sync"
)

// Label is one name=value metric dimension.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// DefaultDurationBuckets are histogram bounds (seconds) spanning the
// simulated operation costs, from sub-microsecond vector kernels to
// multi-second trailing updates.
var DefaultDurationBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5,
}

// Registry holds named metric series. All methods are safe for concurrent
// use and safe on a nil receiver (no-ops returning nil instruments).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// seriesKey canonicalizes name+labels (labels sorted by key).
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func sortedLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// Counter returns (creating on first use) the monotonically increasing
// counter series for name+labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[key]
	if c == nil {
		c = &Counter{name: name, labels: sortedLabels(labels)}
		r.counters[key] = c
	}
	return c
}

// Gauge returns (creating on first use) the gauge series for name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[key]
	if g == nil {
		g = &Gauge{name: name, labels: sortedLabels(labels)}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns (creating on first use) the fixed-bucket histogram
// series for name+labels. buckets are inclusive upper bounds in increasing
// order (+Inf is implicit); they are fixed by the first call for a series.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[key]
	if h == nil {
		h = &Histogram{
			name:    name,
			labels:  sortedLabels(labels),
			bounds:  append([]float64(nil), buckets...),
			buckets: make([]uint64, len(buckets)+1),
		}
		r.hists[key] = h
	}
	return h
}

// CounterValue reads a counter series; 0 if it does not exist.
func (r *Registry) CounterValue(name string, labels ...Label) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[seriesKey(name, labels)]
	r.mu.Unlock()
	return c.Value()
}

// GaugeValue reads a gauge series; 0 if it does not exist.
func (r *Registry) GaugeValue(name string, labels ...Label) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	g := r.gauges[seriesKey(name, labels)]
	r.mu.Unlock()
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Counter is a monotonically increasing metric.
type Counter struct {
	mu     sync.Mutex
	name   string
	labels []Label
	v      float64
}

// Add increments the counter; negative deltas are ignored (counters never
// decrease). Safe on a nil receiver.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	c.mu.Lock()
	c.v += v
	c.mu.Unlock()
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count. Safe on a nil receiver.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a set-to-current-value metric.
type Gauge struct {
	mu     sync.Mutex
	name   string
	labels []Label
	v      float64
}

// Set overwrites the gauge. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add shifts the gauge by v. Safe on a nil receiver.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v += v
	g.mu.Unlock()
}

// Value reads the gauge. Safe on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram is a fixed-bucket distribution with a sum and a count.
type Histogram struct {
	mu      sync.Mutex
	name    string
	labels  []Label
	bounds  []float64 // inclusive upper bounds; +Inf implicit
	buckets []uint64  // len(bounds)+1, non-cumulative
	sum     float64
	count   uint64
}

// Observe records one sample. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.buckets[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Sum returns the total of all observed samples. Safe on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Count returns the number of samples. Safe on a nil receiver.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Buckets returns the upper bounds and the cumulative counts (the last
// entry, bound +Inf, equals Count).
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	if h == nil {
		return nil, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]uint64, len(h.buckets))
	var acc uint64
	for i, c := range h.buckets {
		acc += c
		cumulative[i] = acc
	}
	return bounds, cumulative
}
