package bench

import (
	"fmt"
	"io"

	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// LookaheadCell is one (schedule, N, K) point of the lookahead study: the
// fault-tolerant reduction run cost-only on a K-device pool, with the
// modeled busy seconds attributed to algorithm phases. With lookahead on,
// panel factorizations after the first run under the "panel_hidden" phase
// — concurrent with the previous iteration's remainder update — so the
// serial "panel" share of the critical path is what the schedule removed.
type LookaheadCell struct {
	N         int  `json:"n"`
	Devices   int  `json:"devices"`
	Lookahead bool `json:"lookahead"`
	// FT-Hess modeled makespan and throughput on the pool.
	SimSeconds float64 `json:"sim_seconds"`
	GFLOPS     float64 `json:"model_gflops"`
	// Phases is the modeled busy time by phase (seconds), as the
	// phase_seconds metric reports it.
	Phases map[string]float64 `json:"phase_seconds"`
	// PanelHiddenFrac is the share of total panel-factorization time that
	// ran hidden under the trailing update: hidden / (hidden + exposed).
	// Zero with lookahead off.
	PanelHiddenFrac float64 `json:"panel_hidden_frac"`
}

// LookaheadArtifact is the committed BENCH_lookahead.json: the modeled
// effect of the depth-1 lookahead schedule (DESIGN.md §12) across matrix
// sizes and pool sizes. Cost-only, hence deterministic.
type LookaheadArtifact struct {
	NB    int             `json:"nb"`
	GPU   string          `json:"gpu"`
	Cells []LookaheadCell `json:"cells"`
}

// Speedup returns GFLOPS(lookahead on) / GFLOPS(off) at (n, k), or 0 if
// either cell is missing.
func (a *LookaheadArtifact) Speedup(n, k int) float64 {
	var on, off float64
	for _, c := range a.Cells {
		if c.N == n && c.Devices == k {
			if c.Lookahead {
				on = c.GFLOPS
			} else {
				off = c.GFLOPS
			}
		}
	}
	if off == 0 {
		return 0
	}
	return on / off
}

// Lookahead runs the FT reduction cost-only with the lookahead schedule
// off and on, for every (N, K) in ns × ks, and attributes the modeled
// busy time to phases. Results are bit-identical across the schedule
// switch (that is tested elsewhere); this study reports what the switch
// buys in modeled time.
func Lookahead(ns, ks []int, nb int, params sim.Params) (*LookaheadArtifact, error) {
	art := &LookaheadArtifact{NB: nb, GPU: "Tesla K40c (modeled)"}
	for _, off := range []bool{true, false} {
		for _, n := range ns {
			a := matrix.Shape(n, n)
			for _, k := range ks {
				reg := obs.NewRegistry()
				res, err := ft.Reduce(a, ft.Options{NB: nb, Devices: pool(params, gpu.CostOnly, k), DisableLookahead: off, Obs: reg})
				if err != nil {
					return nil, fmt.Errorf("ft N=%d K=%d lookahead=%v: %w", n, k, !off, err)
				}
				phases := obs.SumBy(reg, "phase_seconds", "phase")
				var frac float64
				if tot := phases["panel"] + phases["panel_hidden"]; tot > 0 {
					frac = phases["panel_hidden"] / tot
				}
				art.Cells = append(art.Cells, LookaheadCell{
					N: n, Devices: k, Lookahead: !off,
					SimSeconds: res.SimSeconds, GFLOPS: res.ModelGFLOPS,
					Phases:          phases,
					PanelHiddenFrac: frac,
				})
			}
		}
	}
	return art, nil
}

// Report prints the study as a table.
func (art *LookaheadArtifact) Report(w io.Writer) {
	fmt.Fprintf(w, "Depth-1 lookahead study, FT-Hess at nb=%d (modeled, %s)\n", art.NB, art.GPU)
	fmt.Fprintf(w, "%-6s %-3s %-10s %12s %9s %12s %12s %8s\n",
		"N", "K", "lookahead", "makespan", "GFLOPS", "panel", "panel_hidden", "hidden%")
	for _, c := range art.Cells {
		la := "off"
		if c.Lookahead {
			la = "on"
		}
		fmt.Fprintf(w, "%-6d %-3d %-10s %11.4fs %9.1f %11.4fs %11.4fs %7.1f%%\n",
			c.N, c.Devices, la, c.SimSeconds, c.GFLOPS,
			c.Phases["panel"], c.Phases["panel_hidden"], 100*c.PanelHiddenFrac)
	}
	last := art.Cells[len(art.Cells)-1]
	fmt.Fprintf(w, "speedup on/off at the largest cell (N=%d, K=%d): %.2fx\n",
		last.N, last.Devices, art.Speedup(last.N, last.Devices))
}
