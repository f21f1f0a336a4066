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
// speedups measured against each algorithm's own K=1 row.
type MultiGPURow struct {
	Devices int `json:"devices"`
	// Hybrid (MAGMA-Hess) on the pool.
	HybridSimSeconds float64 `json:"hybrid_sim_seconds"`
	HybridGFLOPS     float64 `json:"hybrid_model_gflops"`
	HybridSpeedup    float64 `json:"hybrid_speedup_vs_k1"`
	// FT-Hess on the pool (per-slab ABFT maintained on every device).
	FTSimSeconds float64 `json:"ft_sim_seconds"`
	FTGFLOPS     float64 `json:"ft_model_gflops"`
	FTSpeedup    float64 `json:"ft_speedup_vs_k1"`
	// FTOverheadPct is the protection overhead at this pool size:
	// (FT − hybrid) / hybrid, in percent.
	FTOverheadPct float64 `json:"ft_overhead_pct"`
}

// MultiGPUArtifact is the committed BENCH_multigpu.json: the modeled
// strong-scaling curve of the block-column-sharded trailing update
// (DESIGN.md §10). Every figure is simulated time from the cost model,
// so the artifact is deterministic and does not churn across machines.
type MultiGPUArtifact struct {
	N    int           `json:"n"`
	NB   int           `json:"nb"`
	GPU  string        `json:"gpu"`
	Rows []MultiGPURow `json:"pool_sizes"`
}

// MultiGPU runs the baseline and FT reductions on simulated pools of
// each size in ks (cost-only) and reports the makespan scaling. The
// simulated clock reports makespan = max over the devices' lanes, so
// the speedup is exactly what the partitioner's load balance and the
// panel-boundary broadcasts allow.
func MultiGPU(n, nb int, ks []int, params sim.Params) (*MultiGPUArtifact, error) {
	a := matrix.Shape(n, n)
	art := &MultiGPUArtifact{N: n, NB: nb, GPU: "Tesla K40c (modeled)"}
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
			Devices:          k,
			HybridSimSeconds: hres.SimSeconds,
			HybridGFLOPS:     hres.ModelGFLOPS,
			HybridSpeedup:    hyb1 / hres.SimSeconds,
			FTSimSeconds:     fres.SimSeconds,
			FTGFLOPS:         fres.ModelGFLOPS,
			FTSpeedup:        ft1 / fres.SimSeconds,
			FTOverheadPct:    100 * (fres.SimSeconds - hres.SimSeconds) / hres.SimSeconds,
		})
	}
	return art, nil
}

// Report prints the scaling study as a table.
func (art *MultiGPUArtifact) Report(w io.Writer) {
	fmt.Fprintf(w, "Device scaling at N=%d, nb=%d (modeled seconds, %s)\n", art.N, art.NB, art.GPU)
	fmt.Fprintf(w, "%-4s %14s %10s %14s %10s %12s\n",
		"K", "MAGMA-Hess", "speedup", "FT-Hess", "speedup", "FT overhead")
	for _, r := range art.Rows {
		fmt.Fprintf(w, "%-4d %13.4fs %9.2fx %13.4fs %9.2fx %11.1f%%\n",
			r.Devices, r.HybridSimSeconds, r.HybridSpeedup,
			r.FTSimSeconds, r.FTSpeedup, r.FTOverheadPct)
	}
}
