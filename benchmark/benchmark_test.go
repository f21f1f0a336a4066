package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 2, Name: "a.inner", Start: 15 * ms, End: 25 * ms},
		{ID: 4, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a
		{ID: 5, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // sticks out of op
		{ID: 6, Parent: 1, Name: "open", Start: 60 * ms, End: -1},    // never closed
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		// op: 100 minus the union [10,50] ∪ [90,100] of its closed children.
		"op": 50 * ms, "a": 10 * ms, "a.inner": 10 * ms, "b": 30 * ms, "c": 30 * ms,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestRecorderIsNilSafe(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0)
	r.finish(id)
	r.call("y", id, func() {})
	if r.add("z", 0, time.Now(), time.Now()) != 0 || r.snapshot() != nil {
		t.Fatal("a nil recorder recorded something")
	}
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{99, 0.9, false}, {100, 0.9, true}, {999, 0.99, false}, {1000, 0.99, true}, {5000, 0.5, true},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v, ok := tailQuantile(xs, tc.q)
		if ok != tc.ok {
			t.Errorf("n=%d q=%v: reported=%v, want %v", tc.n, tc.q, ok, tc.ok)
		}
		if ok && math.Abs(v-tc.q*float64(tc.n-1)) > 1e-9 {
			t.Errorf("n=%d q=%v: value %v", tc.n, tc.q, v)
		}
	}
}

// The spread statistic must be exactly Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// fakeClock advances only when the sender sleeps or a send takes time.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) { c.t = max(c.t, t) }

func TestOpenLoopStallDelaysLaterJobs(t *testing.T) {
	ms := time.Millisecond
	c := &fakeClock{}
	dues := make([]time.Duration, 10)
	for i := range dues {
		dues[i] = time.Duration(i) * 10 * ms
	}
	done := make([]time.Duration, len(dues))
	late := openLoop(c, dues, func(i int) {
		if i == 3 {
			c.t += 50 * ms // this send stalls
		}
		done[i] = c.now()
	})
	for i, want := range []time.Duration{0, 0, 0, 0, 40 * ms, 30 * ms, 20 * ms, 10 * ms, 0, 0} {
		if got := time.Duration(math.Round(late[i] * 1e9)); got != want {
			t.Errorf("job %d sent %v late, want %v", i, got, want)
		}
	}
	// Due-time latency charges the stall to the jobs behind it.
	if lat := done[4] - dues[4]; lat != 40*ms {
		t.Errorf("job 4 latency %v, want 40ms", lat)
	}
	if m := quantile(late, 1); m != 0.04 {
		t.Errorf("gen_late_max %v, want 0.04", m)
	}
}

func TestServeScheduleIsSeeded(t *testing.T) {
	p := paramsFor(false)
	enc := func(seed uint64) []byte {
		b, err := json.Marshal(serveSchedule(newRand(seed, streamServe), p, 500, p.serveRate))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := enc(7), enc(7); string(a) != string(b) {
		t.Fatal("one seed gave two request sequences")
	}
	if string(enc(7)) == string(enc(8)) {
		t.Fatal("two seeds gave one request sequence")
	}
	jobs := serveSchedule(newRand(7, streamServe), p, 100, 0)
	kinds := map[string]int{}
	for _, j := range jobs {
		kinds[j.Kind]++
		if j.Kind == "repeat" && (jobs[j.Orig].Kind != "fresh" || jobs[j.Orig].Body != j.Body) {
			t.Fatalf("repeat %+v does not repeat a fresh job", j)
		}
	}
	// The deck fixes the mix; the first deck may turn early repeats fresh.
	if kinds["batch"] != 20 || kinds["fresh"]+kinds["repeat"] != 80 || kinds["repeat"] < 27 {
		t.Fatalf("mix %v, want 50/30/20", kinds)
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the code must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !reflect.DeepEqual(names, code) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, code)
	}
	if !reflect.DeepEqual(b.EndToEnd, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end differs from e2eMetrics:\n%+v\n%+v", b.EndToEnd, e2eMetrics)
	}
	if !reflect.DeepEqual(b.PerLayer, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer differs from layerMetrics:\n%+v\n%+v", b.PerLayer, layerMetrics)
	}
}

// Every workload, at the tiny scale, emits exactly the metrics
// BENCHMARK.json lists: the end-to-end set untraced and the per-layer
// set traced, with every time metric actually measured.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 3, seconds: 0.2, trace: traced, tiny: true, out: t.TempDir()}
			r, spans, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed %v", w.name, traced, r.Correct, r.Attempted, r.Failures)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			var got, wantNames []string
			for _, m := range r.Metrics {
				got = append(got, m.Name)
				if timeUnits[m.Unit] && !(m.Value > 0) {
					t.Errorf("%s trace=%v: time metric %s = %v", w.name, traced, m.Name, m.Value)
				}
			}
			for _, s := range want {
				wantNames = append(wantNames, s.Name)
			}
			sort.Strings(got)
			sort.Strings(wantNames)
			if !reflect.DeepEqual(got, wantNames) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.name, traced, got, wantNames)
			}
			if err := writeResult(cfg, r, spans); err != nil {
				t.Fatal(err)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.out, w.name+"_seed3.chrome.json")); err != nil {
					t.Errorf("%s: no chrome trace: %v", w.name, err)
				}
			}
		}
	}
}

func TestCompareJudgesAgainstBounds(t *testing.T) {
	write := func(dir string, scale float64) {
		for seed := 1; seed <= 3; seed++ {
			var ms []metricValue
			for _, s := range e2eMetrics {
				v := float64(10 + seed)
				if s.Name == "ft_wall_ratio" {
					v *= scale
				}
				ms = append(ms, metricValue{Name: s.Name, Value: v, Unit: s.Unit})
			}
			buf, err := json.Marshal(resultFile{Workload: "hess-n1024", Seed: uint64(seed), Metrics: ms})
			if err != nil {
				t.Fatal(err)
			}
			name := filepath.Join(dir, fmt.Sprintf("hess-n1024_seed%d_e2e.json", seed))
			if err := os.WriteFile(name, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	base, same, slow := t.TempDir(), t.TempDir(), t.TempDir()
	write(base, 1)
	write(same, 1.05)
	write(slow, 1.5)
	if ok, err := compareDirs(io.Discard, base, same); err != nil || !ok {
		t.Fatalf("+5%% ft_wall_ratio judged a regression (ok=%v, err=%v)", ok, err)
	}
	if ok, err := compareDirs(io.Discard, base, slow); err != nil || ok {
		t.Fatalf("+50%% ft_wall_ratio passed (ok=%v, err=%v)", ok, err)
	}
}
