package bench

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/blas"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Breakdown attributes the simulated busy time of the baseline and the
// fault-tolerant reduction to operation families and algorithm phases,
// answering "where does the overhead go" — the quantitative companion of
// the paper's Section V analysis (the extra work is GEMV-class checksum
// kernels, small transfers, and host-side bookkeeping, all O(N²)) and a
// Table-II-style per-step view of where the FT run spends its time.
// Both views are read back from the observability registries the two
// runs populate, so the numbers here are exactly the ones a -metrics
// export would report.
func Breakdown(w io.Writer, n, nb int, params sim.Params) {
	_, _, regB, regF, err := costPair(n, nb, params)
	if err != nil {
		panic(err)
	}

	base := obs.SumBy(regB, "op_seconds_total", "kind")
	ftbd := obs.SumBy(regF, "op_seconds_total", "kind")
	fmt.Fprintf(w, "Busy-time breakdown at N=%d, nb=%d (modeled seconds per operation family)\n", n, nb)
	fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "kind", "MAGMA-Hess", "FT-Hess", "FT extra")
	var tb, tf float64
	for _, k := range sortedKeys(base, ftbd) {
		fmt.Fprintf(w, "%-8s %12.4f %12.4f %+12.4f\n", k, base[k], ftbd[k], ftbd[k]-base[k])
		tb += base[k]
		tf += ftbd[k]
	}
	fmt.Fprintf(w, "%-8s %12.4f %12.4f %+12.4f  (lanes overlap; totals exceed makespan)\n", "Σ", tb, tf, tf-tb)

	// Table-II-style phase attribution: the baseline phases carry the
	// algorithmic work, the FT-only phases are the protection steps. The
	// p50/p95/p99 columns come from the same phase_seconds histograms the
	// /metrics exposition publishes (obs.MergeBy + ExportQuantiles): they
	// show the per-visit latency spread of each FT phase, where the total
	// alone can hide a few pathologically slow iterations.
	pb := obs.SumBy(regB, "phase_seconds", "phase")
	pf := obs.SumBy(regF, "phase_seconds", "phase")
	qf := obs.MergeBy(regF, "phase_seconds", "phase")
	fmt.Fprintf(w, "\nPer-phase busy time (modeled seconds; FT-only phases are the protection steps;\nquantiles are per-visit FT-Hess latencies)\n")
	fmt.Fprintf(w, "%-22s %12s %12s %10s %10s %10s\n", "phase", "MAGMA-Hess", "FT-Hess", "p50", "p95", "p99")
	for _, p := range sortedKeys(pb, pf) {
		marker := ""
		if _, inBase := pb[p]; !inBase {
			marker = "  [FT only]"
		}
		q := qf[p].Quantiles(obs.ExportQuantiles...)
		fmt.Fprintf(w, "%-22s %12.4f %12.4f %10.6f %10.6f %10.6f%s\n",
			p, pb[p], pf[p], q[0], q[1], q[2], marker)
	}

	fmt.Fprintf(w, "\nHost BLAS substrate: %s\n", substrateThroughput())
}

// costPair runs MAGMA-Hess and FT-Hess cost-only at (n, nb) on one
// simulated device each, with a registry attached to both, and returns
// their modeled makespans and registries.
func costPair(n, nb int, params sim.Params) (baseSec, ftSec float64, regB, regF *obs.Registry, err error) {
	a := matrix.New(n, n)
	regB, regF = obs.NewRegistry(), obs.NewRegistry()
	b, err := hybrid.Reduce(a, hybrid.Options{NB: nb, Device: gpu.New(params, gpu.CostOnly), Obs: regB})
	if err != nil {
		return 0, 0, nil, nil, fmt.Errorf("hybrid N=%d: %w", n, err)
	}
	f, err := ft.Reduce(a, ft.Options{NB: nb, Device: gpu.New(params, gpu.CostOnly), Obs: regF})
	if err != nil {
		return 0, 0, nil, nil, fmt.Errorf("ft N=%d: %w", n, err)
	}
	return b.SimSeconds, f.SimSeconds, regB, regF, nil
}

// ObsRow is one size of BENCH_obs.json: the baseline-vs-FT comparison
// with the FT run's busy time per phase, read back from its registry.
type ObsRow struct {
	N              int                `json:"n"`
	Baseline       float64            `json:"baseline_seconds"`
	FT             float64            `json:"ft_seconds"`
	OverheadPct    float64            `json:"ft_overhead_pct"`
	FTPhaseSeconds map[string]float64 `json:"ft_phase_seconds"`
}

// ObsArtifact is the committed BENCH_obs.json, which lets external
// tooling track FT overhead across commits without parsing text reports.
// Cost-only, hence deterministic.
type ObsArtifact []ObsRow

// Obs runs the breakdown pair at each size in ns.
func Obs(ns []int, nb int, params sim.Params) (ObsArtifact, error) {
	var art ObsArtifact
	for _, n := range ns {
		base, fts, _, regF, err := costPair(n, nb, params)
		if err != nil {
			return nil, err
		}
		art = append(art, ObsRow{
			N: n, Baseline: base, FT: fts,
			OverheadPct:    100 * (fts - base) / base,
			FTPhaseSeconds: obs.SumBy(regF, "phase_seconds", "phase"),
		})
	}
	return art, nil
}

// Report prints the comparison as a table.
func (art ObsArtifact) Report(w io.Writer) {
	fmt.Fprintf(w, "FT overhead by size (modeled seconds)\n%6s %12s %12s %10s\n", "N", "MAGMA-Hess", "FT-Hess", "overhead")
	for _, r := range art {
		fmt.Fprintf(w, "%6d %12.4f %12.4f %9.2f%%\n", r.N, r.Baseline, r.FT, r.OverheadPct)
	}
}

// substrateThroughput measures the host GEMM substrate the modeled numbers
// above ultimately depend on: it attaches a registry to the BLAS package,
// runs one real trailing-update-shaped product through the blocked Dgemm,
// and reads the achieved flops and seconds back out of blas_flops_total /
// blas_op_seconds_total. Unlike everything else in the breakdown this is a
// measured wall-clock figure, not a modeled one.
func substrateThroughput() string {
	const m, n, k = 1024, 1024, 128
	reg := obs.NewRegistry()
	prev := blas.SetObs(reg)
	defer blas.SetObs(prev)

	a := matrix.Random(m, k, 7)
	b := matrix.Random(k, n, 8)
	c := matrix.New(m, n)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)

	flops := obs.SumBy(reg, "blas_flops_total", "")[""]
	secs := obs.SumBy(reg, "blas_op_seconds_total", "op")["gemm"]
	if secs <= 0 {
		return "unavailable (no timing recorded)"
	}
	return fmt.Sprintf("blocked Dgemm %d×%d×%d achieved %.2f GFLOP/s (measured on the host)",
		m, n, k, flops/secs/1e9)
}

// sortedKeys returns the union of the maps' keys, sorted.
func sortedKeys(ms ...map[string]float64) []string {
	seen := map[string]bool{}
	var order []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				order = append(order, k)
			}
		}
	}
	sort.Strings(order)
	return order
}
