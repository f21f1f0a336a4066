// Command benchmark is the repository's benchmark. It drives the
// reduction stack from outside, through the public functions of each
// module (core, hybrid, ft, blas, lapack, serve over loopback HTTP), on
// four seeded workloads, checks every output outside the timed interval,
// and reports end-to-end metrics (tracing off) or per-layer metrics
// (-trace 1). See README.md for the workloads, the metrics and how to
// compare two sets of runs.
//
//	bash benchmark/run.sh --workload hess-n1024 --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --out benchmark/out/set1
//	bash benchmark/run.sh --compare benchmark/baseline/set1 benchmark/baseline/set2
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/blas"
	"repro/internal/obs"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	tiny     bool
}

// workload is one set of inputs the benchmark runs; README.md and
// BENCHMARK.json say why each was chosen.
type workload struct {
	name string
	run  func(e *env) error
}

var workloads = []workload{
	{"hess-n1024", runHess},
	{"ft-faults-pool", runFaults},
	{"serve-mix", runServe},
	{"fig6-model", runFig6},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupReps is how many times each workload sets up; setup_s is the
// median. Workloads whose set-up is per input set up one input per rep.
const setupReps = 3

// env carries one workload run's settings, tracing state and results.
type env struct {
	cfg config
	p   params
	// rec, blasReg and simReg exist only in a traced run: spans, the
	// blas.SetObs registry attached around traced ops, and the registry
	// traced reductions report their modeled phases to.
	rec     *recorder
	blasReg *obs.Registry
	simReg  *obs.Registry
	root    int // the workload span
	res     outcome
}

// outcome is what a workload run measured.
type outcome struct {
	setup []float64 // seconds per setup rep
	// lat holds every timed op's latency in seconds, traced[i] whether
	// op i ran with tracing on (traced runs alternate).
	lat    []float64
	traced []bool
	// ratios holds, per paired op, the FT arm's wall over the non-FT
	// baseline arm's wall on the same work.
	ratios []float64
	// busy and cpu are the summed wall and process CPU seconds of the
	// timed calls; tracedWall the wall of the traced ops.
	busy, cpu, tracedWall float64
	attempted             int
	failed                int
	failures              []string
	// verify holds the wall seconds of each reference verification.
	verify []float64
	e2e    map[string]float64
	layer  map[string]float64
	wall   map[string]float64 // workload-specific wall figures
	detail map[string]any
}

// fail counts one failed op and keeps the first few reasons.
func (e *env) fail(format string, args ...any) {
	e.res.failed++
	if len(e.res.failures) < 20 {
		e.res.failures = append(e.res.failures, fmt.Sprintf(format, args...))
	}
}

// setup runs f setupReps times, timing each rep as set-up.
func (e *env) setup(f func(rep int) error) error {
	for rep := 0; rep < setupReps; rep++ {
		id := e.rec.begin("setup", e.root)
		t0 := time.Now()
		err := f(rep)
		e.res.setup = append(e.res.setup, time.Since(t0).Seconds())
		e.rec.finish(id)
		if err != nil {
			return fmt.Errorf("setup rep %d: %w", rep, err)
		}
	}
	return nil
}

// opTimes accumulates the timed calls of one op.
type opTimes struct{ wall, cpu float64 }

// tracing is what an op records into: the spans and the modeled-phase
// registry of a traced op (both nil when untraced), and the op's timed
// seconds. paired asks the op to time its non-FT baseline arm as well;
// untraced runs pair every op, traced runs never do.
type tracing struct {
	rec    *recorder
	parent int
	sim    *obs.Registry
	times  *opTimes
	paired bool
}

// call runs f, untimed, as a child span of the op.
func (t tracing) call(name string, f func()) { t.rec.call(name, t.parent, f) }

// timed runs f as a child span of the op, adds its wall and process CPU
// seconds to the op's timed total, and returns the wall seconds. Every
// timed call starts from a freshly collected heap (untimed), so the arms
// of a pair start alike and the peak RSS does not depend on where the
// collector happened to be.
func (t tracing) timed(name string, f func()) float64 {
	runtime.GC()
	id := t.rec.begin(name, t.parent)
	c0, t0 := processCPU(), time.Now()
	f()
	dt, dc := time.Since(t0).Seconds(), processCPU()-c0
	t.rec.finish(id)
	if t.times != nil {
		t.times.wall += dt
		t.times.cpu += dc
	}
	return dt
}

// sample is what one op measured: the wall and process CPU seconds of
// its latency (the paired baseline arm excluded) and, when paired, the
// wall of each FT arm over its baseline arm on the same work.
type sample struct {
	lat, cpu float64
	ratios   []float64
}

// closedLoop is one client calling op back to back until the timed calls
// add up to the run's seconds. op makes its timed calls through t.timed
// and returns its sample and a check of its output, which runs outside
// the timed interval. A traced run alternates traced and untraced ops,
// so the untraced half measures what tracing costs.
func (e *env) closedLoop(op func(i int, t tracing) (sample, func() error, error)) {
	for i := 0; e.res.busy < e.cfg.seconds || i < 2; i++ {
		traced := e.rec != nil && i%2 == 0
		t := tracing{times: &opTimes{}, paired: e.rec == nil}
		if traced {
			t.rec, t.parent, t.sim = e.rec, e.rec.begin("op", e.root), e.simReg
			blas.SetObs(e.blasReg)
		}
		e.res.attempted++
		s, check, err := op(i, t)
		if traced {
			blas.SetObs(nil)
			e.res.tracedWall += t.times.wall
		}
		e.res.busy += t.times.wall
		e.res.cpu += s.cpu
		e.res.lat = append(e.res.lat, s.lat)
		e.res.traced = append(e.res.traced, traced)
		e.res.ratios = append(e.res.ratios, s.ratios...)
		if err == nil {
			t.call("verify", func() { err = check() })
		}
		if err != nil {
			e.fail("op %d: %v", i, err)
		}
		e.rec.finish(t.parent)
	}
}

// tracedLatencies splits the op latencies by tracing.
func (e *env) tracedLatencies() (on, off []float64) {
	for i, v := range e.res.lat {
		if e.res.traced[i] {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	return on, off
}

// blasLayer reports the BLAS busy wall recorded around traced ops as
// shares of those ops' wall, and the achieved BLAS rate.
func (e *env) blasLayer(opWall float64) {
	secs := obs.SumBy(e.blasReg, "blas_op_seconds_total", "op")
	var total float64
	for _, op := range blasOps {
		e.res.layer["blas."+op+"_share"] = ratio(secs[op], opWall)
	}
	for _, v := range secs {
		total += v
	}
	e.res.layer["blas.share"] = ratio(total, opWall)
	e.res.layer["blas.gflops"] = ratio(e.blasReg.CounterValue("blas_flops_total"), total) / 1e9
}

// simLayer reports each modeled phase's share of the charged modeled
// seconds in reg.
func (e *env) simLayer(reg *obs.Registry) {
	phases := obs.SumBy(reg, "phase_seconds", "phase")
	var total float64
	for _, v := range phases {
		total += v
	}
	for _, ph := range simPhases {
		e.res.layer["sim.phase."+ph+"_share"] = ratio(phases[ph], total)
	}
}

// ratio is a/b, or 0 when b is 0 (the metric does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// metricValue is one reported metric.
type metricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is DIR/<workload>_seed<seed>_<e2e|trace>.json.
type resultFile struct {
	Workload   string               `json:"workload"`
	Seed       uint64               `json:"seed"`
	Seconds    float64              `json:"seconds"`
	Trace      bool                 `json:"trace"`
	Scale      string               `json:"scale"`
	Correct    bool                 `json:"correct"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Failures   []string             `json:"failures,omitempty"`
	Metrics    []metricValue        `json:"metrics"`
	Samples    map[string][]float64 `json:"samples"`
	Wall       map[string]float64   `json:"wall"`
	Detail     map[string]any       `json:"detail,omitempty"`
	SelfTimeS  map[string]float64   `json:"self_time_s,omitempty"`
	Provenance provenance           `json:"provenance"`
}

// runWorkload runs one workload in this process and assembles its
// result: the end-to-end metrics, or with tracing the per-layer ones.
func runWorkload(cfg config) (*resultFile, []span, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	e := &env{cfg: cfg, p: paramsFor(cfg.tiny)}
	e.res.e2e = map[string]float64{}
	e.res.layer = map[string]float64{}
	e.res.wall = map[string]float64{}
	e.res.detail = map[string]any{}
	if cfg.trace {
		e.rec = newRecorder()
		e.blasReg = obs.NewRegistry()
		e.simReg = obs.NewRegistry()
		e.root = e.rec.begin(cfg.workload, 0)
	}
	if err := w.run(e); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	e.rec.finish(e.root)
	if len(e.res.lat) == 0 {
		return nil, nil, fmt.Errorf("%s: no op completed", cfg.workload)
	}

	r := &resultFile{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Scale: "full", Correct: e.res.failed == 0,
		Attempted: e.res.attempted, Failed: e.res.failed, Failures: e.res.failures,
		Samples:    map[string][]float64{"setup_s": e.res.setup, "latency_s": e.res.lat},
		Detail:     e.res.detail,
		Provenance: readProvenance(),
	}
	if cfg.tiny {
		r.Scale = "tiny"
	}
	// Wall-clock figures of the run, reported but not gated (README.md,
	// "Why raw wall time is not gated"). Tail percentiles obey the tail
	// rule.
	lat := e.res.lat
	p50 := median(lat)
	r.Wall = map[string]float64{
		"ops":              float64(len(lat)),
		"latency_p50_s":    p50,
		"throughput_per_s": ratio(float64(len(lat)), sum(lat)),
		"cpu_s_per_op":     e.res.cpu / float64(len(lat)),
	}
	for _, q := range []float64{0.9, 0.99} {
		if v, ok := tailQuantile(lat, q); ok {
			r.Wall[fmt.Sprintf("latency_p%g_s", q*100)] = v
		}
	}
	for k, v := range e.res.wall {
		r.Wall[k] = v
	}

	values := map[string]float64{}
	specs := e2eMetrics
	if cfg.trace {
		specs = layerMetrics
		for k, v := range e.res.layer {
			values[k] = v
		}
		on, off := e.tracedLatencies()
		values["benchmark.latency_p50_s"] = p50
		values["benchmark.throughput_per_s"] = r.Wall["throughput_per_s"]
		values["benchmark.cpu_s_per_op"] = r.Wall["cpu_s_per_op"]
		p90, _ := tailQuantile(lat, 0.9)
		p99, _ := tailQuantile(lat, 0.99)
		values["benchmark.latency_p90_ratio"] = ratio(p90, p50)
		values["benchmark.latency_p99_ratio"] = ratio(p99, p50)
		values["benchmark.samples"] = float64(len(lat))
		if _, set := e.res.layer["obs.trace_overhead_frac"]; !set && len(off) > 0 {
			values["obs.trace_overhead_frac"] = median(on)/median(off) - 1
		}
		self := map[string]float64{}
		for name, d := range selfTimes(e.rec.snapshot()) {
			self[name] = d.Seconds()
		}
		r.SelfTimeS = self
	} else {
		for k, v := range e.res.e2e {
			values[k] = v
		}
		values["setup_s"] = median(e.res.setup)
		if _, set := values["ft_wall_ratio"]; !set {
			values["ft_wall_ratio"] = median(e.res.ratios)
		}
		values["peak_rss_mb"] = peakRSSMiB()
		r.Samples["ft_wall_ratio"] = e.res.ratios
	}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok && (!cfg.trace || timeUnits[s.Unit]) {
			return nil, nil, fmt.Errorf("%s: metric %s was not measured", cfg.workload, s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("%s: metric %s is %v", cfg.workload, s.Name, v)
		}
		r.Metrics = append(r.Metrics, metricValue{Name: s.Name, Value: v, Unit: s.Unit})
	}
	return r, e.rec.snapshot(), nil
}

// writeResult writes the result file (and, for a traced run, the spans)
// under cfg.out.
func writeResult(cfg config, r *resultFile, spans []span) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if cfg.trace {
		kind = "trace"
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("%s_seed%d", cfg.workload, cfg.seed))
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	if err := os.WriteFile(base+"_"+kind+".json", append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	return writeSpans(spans, base+".spans.jsonl", base+".chrome.json")
}

// printResult prints one "workload metric value unit" line per metric
// and, last, the JSON summary line.
func printResult(w io.Writer, r *resultFile) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(r.Metrics))
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %v %s\n", r.Workload, m.Name, m.Value, m.Unit)
		metrics[m.Name] = mv{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload one after another, each in a fresh child
// process of this binary, so peak RSS and GC state belong to one
// workload alone.
func runAll(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-out", cfg.out}
		if cfg.tiny {
			args = append(args, "-scale", "tiny")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

func main() {
	var cfg config
	var trace int
	var scale string
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed all inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of each workload's timed phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", "benchmark/out", "directory for result files")
	flag.StringVar(&scale, "scale", "full", "full, or tiny (tests only)")
	flag.BoolVar(&compare, "compare", false, "compare two result directories: -compare A B")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare DIR_A DIR_B")
			os.Exit(2)
		}
		ok, err := compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || (trace != 0 && trace != 1) || (scale != "full" && scale != "tiny") || !(cfg.seconds > 0) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.tiny = scale == "tiny"

	if cfg.workload == "all" {
		if err := runAll(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	r, spans, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := writeResult(cfg, r, spans); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, r); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !r.Correct {
		fmt.Fprintln(os.Stderr, "benchmark: wrong outputs:", r.Failures)
		os.Exit(1)
	}
}
