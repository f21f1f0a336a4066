package main

import (
	"math"
	"sort"
)

// metricSpec declares one reported metric. The two tables below are the
// single source of the metric names, units, directions and bounds:
// BENCHMARK.json must list exactly these (checked by
// TestBenchmarkJSONMatchesTables), and -compare judges against them.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

// exact is the bound of the modeled metrics: they come from the
// deterministic K40c cost model, so any change at all is a real change.
const exact = 1e-9

// e2eMetrics are measured with tracing off and reported by every
// workload. Their meaning per workload is in README.md.
var e2eMetrics = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ft_wall_ratio", "ratio", "lower", 0.15},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"modeled_gflops", "GFLOPS", "higher", exact},
	{"modeled_ft_overhead_pct", "%", "lower", exact},
}

// simPhases are the modeled phases whose share of charged device/host
// seconds the traced run reports.
var simPhases = []string{
	"panel", "panel_hidden", "right_update", "left_update", "encode",
	"checksum_maintenance", "detect", "recovery", "q_protect",
}

// blasOps are the blas_op_seconds_total{op} families the traced run
// reports as shares of the measured op wall.
var blasOps = []string{"gemv", "gemm", "trmm", "ger", "gemm_ft", "gemv_ft", "ger_ft"}

// layerMetrics come from the traced run. A metric that does not apply to
// a workload reads 0; every such metric is a count, ratio or rate, never
// a time, so a time metric is always a measurement.
var layerMetrics = func() []metricSpec {
	m := []metricSpec{
		{Name: "benchmark.latency_p50_s", Unit: "s", Better: "lower"},
		{Name: "benchmark.throughput_per_s", Unit: "1/s", Better: "higher"},
		{Name: "benchmark.cpu_s_per_op", Unit: "s", Better: "lower"},
		{Name: "benchmark.latency_p90_ratio", Unit: "ratio", Better: "lower"},
		{Name: "benchmark.latency_p99_ratio", Unit: "ratio", Better: "lower"},
		{Name: "benchmark.samples", Unit: "count", Better: "higher"},
		{Name: "benchmark.gen_late_max_frac", Unit: "ratio", Better: "lower"},
		{Name: "benchmark.gen_late_p90_frac", Unit: "ratio", Better: "lower"},
		{Name: "blas.share", Unit: "ratio", Better: "lower"},
	}
	for _, op := range blasOps {
		m = append(m, metricSpec{Name: "blas." + op + "_share", Unit: "ratio", Better: "lower"})
	}
	m = append(m,
		metricSpec{Name: "blas.gflops", Unit: "GFLOPS", Better: "higher"},
		metricSpec{Name: "blas.dgemm_k32_gflops", Unit: "GFLOPS", Better: "higher"},
		metricSpec{Name: "blas.dgemm_ft_k32_overhead_frac", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "blas.dgemv_n1024_gbps", Unit: "GB/s", Better: "higher"},
		metricSpec{Name: "blas.dgemm_512_gflops", Unit: "GFLOPS", Better: "higher"},
		metricSpec{Name: "lapack.dgehrd_gflops", Unit: "GFLOPS", Better: "higher"},
		metricSpec{Name: "lapack.dgehrd_1t_gflops", Unit: "GFLOPS", Better: "higher"},
		metricSpec{Name: "lapack.verify_ratio", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "gpu.kernels_per_op", Unit: "count", Better: "lower"},
		metricSpec{Name: "gpu.transfers_per_op", Unit: "count", Better: "lower"},
		metricSpec{Name: "gpu.mbytes_moved_per_op", Unit: "MB", Better: "lower"},
		metricSpec{Name: "gpu.dispatch_share", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "gpu.dispatch_us_per_kernel", Unit: "us", Better: "lower"},
	)
	for _, ph := range simPhases {
		m = append(m, metricSpec{Name: "sim.phase." + ph + "_share", Unit: "ratio", Better: "lower"})
	}
	return append(m,
		metricSpec{Name: "ft.recovery_wall_frac", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "ft.detections_per_op", Unit: "count", Better: "higher"},
		metricSpec{Name: "ft.recoveries_per_op", Unit: "count", Better: "higher"},
		metricSpec{Name: "ft.q_corrections_per_op", Unit: "count", Better: "higher"},
		metricSpec{Name: "ft.substrate_checks_per_op", Unit: "count", Better: "lower"},
		metricSpec{Name: "ft.substrate_detections_per_op", Unit: "count", Better: "higher"},
		metricSpec{Name: "ft.corrected_ratio", Unit: "ratio", Better: "higher"},
		metricSpec{Name: "ft.false_detections", Unit: "count", Better: "lower"},
		metricSpec{Name: "hybrid.reduce_s", Unit: "s", Better: "lower"},
		metricSpec{Name: "devpool.k2_vs_k1_wall_ratio", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "devpool.k1_vs_k0_wall_ratio", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "devpool.modeled_k2_speedup", Unit: "ratio", Better: "higher"},
		metricSpec{Name: "core.digest_n256_s", Unit: "s", Better: "lower"},
		metricSpec{Name: "core.digest_n1024_s", Unit: "s", Better: "lower"},
		metricSpec{Name: "batch.cache_hits", Unit: "count", Better: "higher"},
		metricSpec{Name: "batch.cache_misses", Unit: "count", Better: "lower"},
		metricSpec{Name: "batch.cache_coalesced", Unit: "count", Better: "higher"},
		metricSpec{Name: "batch.cache_hit_ratio", Unit: "ratio", Better: "higher"},
		metricSpec{Name: "batch.hit_speedup", Unit: "ratio", Better: "higher"},
		metricSpec{Name: "batch.farm_modeled_items_per_s", Unit: "1/s", Better: "higher"},
		metricSpec{Name: "serve.submit_p50_share", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "serve.submit_p90_share", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "serve.exec_p50_share", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "serve.queue_wait_p50_share", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "serve.queue_wait_p90_share", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "serve.rejected", Unit: "count", Better: "lower"},
		metricSpec{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	)
}()

// timeUnits are the units of metrics that must be measured on every
// workload (never a placeholder 0).
var timeUnits = map[string]bool{"s": true, "us": true}

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile applies the tail rule: a percentile is reported only when
// at least ten samples lie beyond it, so p90 needs 100 samples and p99
// needs 1000. ok is false when there are too few.
func tailQuantile(xs []float64, q float64) (v float64, ok bool) {
	if float64(len(xs))*(1-q) < 10-1e-9 {
		return 0, false
	}
	return quantile(xs, q), true
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), the
// spread statistic the benchmark's acceptance is defined on.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out [3]float64
	n := len(s)
	switch n {
	case 0:
		return out
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}
