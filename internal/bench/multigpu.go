package bench

import (
	"fmt"
	"io"

	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// MultiGPURow is one pool size of the device-scaling study: the baseline
// and the fault-tolerant reduction run on the same K-device pool
// (cost-only, so the numbers are deterministic modeled seconds), with
// speedups measured against each algorithm's own K=1 row and against
// the single-device ("legacy", K=0) schedule.
type MultiGPURow struct {
	Devices int `json:"devices"`
	// Hybrid (MAGMA-Hess) on the pool.
	HybridSimSeconds    float64 `json:"hybrid_sim_seconds"`
	HybridGFLOPS        float64 `json:"hybrid_model_gflops"`
	HybridSpeedup       float64 `json:"hybrid_speedup_vs_k1"`
	HybridSpeedupLegacy float64 `json:"hybrid_speedup_vs_legacy"`
	// FT-Hess on the pool (per-slab ABFT maintained on every device).
	FTSimSeconds    float64 `json:"ft_sim_seconds"`
	FTGFLOPS        float64 `json:"ft_model_gflops"`
	FTSpeedup       float64 `json:"ft_speedup_vs_k1"`
	FTSpeedupLegacy float64 `json:"ft_speedup_vs_legacy"`
	// FTOverheadPct is the protection overhead at this pool size:
	// (FT − hybrid) / hybrid, in percent.
	FTOverheadPct float64 `json:"ft_overhead_pct"`
}

// MultiGPUArtifact is the committed BENCH_multigpu.json: the modeled
// strong-scaling curve of the block-column-sharded trailing update
// (DESIGN.md §10), anchored on the single-device schedule. Every figure
// is simulated time from the cost model, so the artifact is
// deterministic and does not churn across machines.
type MultiGPUArtifact struct {
	N   int    `json:"n"`
	NB  int    `json:"nb"`
	GPU string `json:"gpu"`
	// LegacyHybridSimSeconds and LegacyFTSimSeconds are the two
	// algorithms on one device with the single-device schedule (K=0).
	LegacyHybridSimSeconds float64       `json:"legacy_hybrid_sim_seconds"`
	LegacyFTSimSeconds     float64       `json:"legacy_ft_sim_seconds"`
	Rows                   []MultiGPURow `json:"pool_sizes"`
}

// MultiGPU runs the baseline and FT reductions on the single-device
// schedule and on simulated pools of each size in ks (cost-only) and
// reports the makespan scaling. The simulated clock reports makespan =
// max over the devices' lanes, so the speedup is exactly what the
// partitioner's load balance and the panel-boundary broadcasts allow.
func MultiGPU(n, nb int, ks []int, params sim.Params) (*MultiGPUArtifact, error) {
	a := matrix.Shape(n, n)
	art := &MultiGPUArtifact{N: n, NB: nb, GPU: "Tesla K40c (modeled)"}
	hleg, err := hybrid.Reduce(a, hybrid.Options{NB: nb, Device: gpu.New(params, gpu.CostOnly)})
	if err != nil {
		return nil, fmt.Errorf("hybrid legacy: %w", err)
	}
	fleg, err := ft.Reduce(a, ft.Options{NB: nb, Device: gpu.New(params, gpu.CostOnly)})
	if err != nil {
		return nil, fmt.Errorf("ft legacy: %w", err)
	}
	art.LegacyHybridSimSeconds, art.LegacyFTSimSeconds = hleg.SimSeconds, fleg.SimSeconds
	var hyb1, ft1 float64
	for _, k := range ks {
		hres, err := hybrid.Reduce(a, hybrid.Options{NB: nb, Devices: pool(params, gpu.CostOnly, k)})
		if err != nil {
			return nil, fmt.Errorf("hybrid K=%d: %w", k, err)
		}
		fres, err := ft.Reduce(a, ft.Options{NB: nb, Devices: pool(params, gpu.CostOnly, k)})
		if err != nil {
			return nil, fmt.Errorf("ft K=%d: %w", k, err)
		}
		if hyb1 == 0 {
			hyb1, ft1 = hres.SimSeconds, fres.SimSeconds
		}
		art.Rows = append(art.Rows, MultiGPURow{
			Devices:             k,
			HybridSimSeconds:    hres.SimSeconds,
			HybridGFLOPS:        hres.ModelGFLOPS,
			HybridSpeedup:       hyb1 / hres.SimSeconds,
			HybridSpeedupLegacy: hleg.SimSeconds / hres.SimSeconds,
			FTSimSeconds:        fres.SimSeconds,
			FTGFLOPS:            fres.ModelGFLOPS,
			FTSpeedup:           ft1 / fres.SimSeconds,
			FTSpeedupLegacy:     fleg.SimSeconds / fres.SimSeconds,
			FTOverheadPct:       100 * (fres.SimSeconds - hres.SimSeconds) / hres.SimSeconds,
		})
	}
	return art, nil
}

// Report prints the scaling study as a table.
func (art *MultiGPUArtifact) Report(w io.Writer) {
	fmt.Fprintf(w, "Device scaling at N=%d, nb=%d (modeled seconds, %s)\n", art.N, art.NB, art.GPU)
	fmt.Fprintf(w, "legacy (single-device schedule): MAGMA-Hess %.4fs, FT-Hess %.4fs\n",
		art.LegacyHybridSimSeconds, art.LegacyFTSimSeconds)
	fmt.Fprintf(w, "%-4s %14s %8s %10s %14s %8s %10s %12s\n",
		"K", "MAGMA-Hess", "vs K=1", "vs legacy", "FT-Hess", "vs K=1", "vs legacy", "FT overhead")
	for _, r := range art.Rows {
		fmt.Fprintf(w, "%-4d %13.4fs %7.2fx %9.2fx %13.4fs %7.2fx %9.2fx %11.1f%%\n",
			r.Devices, r.HybridSimSeconds, r.HybridSpeedup, r.HybridSpeedupLegacy,
			r.FTSimSeconds, r.FTSpeedup, r.FTSpeedupLegacy, r.FTOverheadPct)
	}
}
