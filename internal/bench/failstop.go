package bench

import (
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// FailStopCell is one (N, K) point of the fail-stop study (DESIGN.md
// §13): the FT reduction run cost-only on a K-device pool three ways —
// parity off, parity on with no loss, and parity on with one device
// killed mid trailing update — against the modeled cost of the
// alternative, killing the job and rerunning it from scratch.
type FailStopCell struct {
	N       int `json:"n"`
	Devices int `json:"devices"`
	// KillIter is the blocked iteration at which the loss strikes (mid
	// schedule) in the killed run.
	KillIter int `json:"kill_iter"`
	// CleanSeconds is the modeled makespan with fail-stop off; the
	// baseline every overhead below is measured against.
	CleanSeconds float64 `json:"clean_seconds"`
	// ParitySeconds is the makespan with parity maintenance on but no
	// loss: the standing insurance premium.
	ParitySeconds     float64 `json:"parity_seconds"`
	ParityOverheadPct float64 `json:"parity_overhead_pct"`
	// RecoverySeconds is the makespan of the killed run: parity upkeep
	// plus one in-place reconstruction onto a spare.
	RecoverySeconds     float64 `json:"recovery_seconds"`
	RecoveryOverheadPct float64 `json:"recovery_overhead_pct"`
	// RestartSeconds models the no-parity alternative for the same loss:
	// the work already sunk when the device died (the flop-weighted share
	// of the clean makespan up to KillIter) plus a full clean rerun.
	RestartSeconds float64 `json:"restart_seconds"`
	// RestartRatio is RestartSeconds / RecoverySeconds — how much
	// cheaper surviving the loss is than rerunning the job.
	RestartRatio float64 `json:"restart_ratio"`
}

// FailStopArtifact is the committed BENCH_failstop.json: reconstruction
// cost versus job restart across matrix and pool sizes. Cost-only,
// hence deterministic.
type FailStopArtifact struct {
	NB    int            `json:"nb"`
	GPU   string         `json:"gpu"`
	Cells []FailStopCell `json:"cells"`
}

// sunkFraction models the share of a clean run's makespan spent before
// blocked iteration kill: iterations are weighted by their dominant
// trailing-update cost, ~(n-p)². The restart alternative loses exactly
// that work.
func sunkFraction(n, nb, kill, iters int) float64 {
	var sunk, total float64
	for i := 0; i < iters; i++ {
		w := float64(n-i*nb) * float64(n-i*nb)
		total += w
		if i < kill {
			sunk += w
		}
	}
	if total == 0 {
		return 0
	}
	return sunk / total
}

// FailStop runs the fail-stop study for every (N, K) in ns × ks.
func FailStop(ns, ks []int, nb int, params sim.Params) (*FailStopArtifact, error) {
	art := &FailStopArtifact{NB: nb, GPU: "Tesla K40c (modeled)"}
	for _, n := range ns {
		a := matrix.Shape(n, n)
		iters := fault.BlockedIterations(n, nb)
		kill := iters / 2
		for _, k := range ks {
			clean, err := ft.Reduce(a, ft.Options{NB: nb, Devices: pool(params, gpu.CostOnly, k)})
			if err != nil {
				return nil, fmt.Errorf("clean N=%d K=%d: %w", n, k, err)
			}
			parity, err := ft.Reduce(a, ft.Options{NB: nb, Devices: pool(params, gpu.CostOnly, k), FailStop: true})
			if err != nil {
				return nil, fmt.Errorf("parity N=%d K=%d: %w", n, k, err)
			}
			hook := fault.NewSchedule(fault.Plan{
				TargetIter: kill, KillPoint: fault.KillUpdate, KillDevice: (k - 1) % k,
			})
			killed, err := ft.Reduce(a, ft.Options{NB: nb, Devices: pool(params, gpu.CostOnly, k), FailStop: true, Hook: hook})
			if err != nil {
				return nil, fmt.Errorf("killed N=%d K=%d: %w", n, k, err)
			}
			if killed.FailStopRecoveries != 1 {
				return nil, fmt.Errorf("killed N=%d K=%d: %d recoveries, want 1", n, k, killed.FailStopRecoveries)
			}
			restart := sunkFraction(n, nb, kill, iters)*clean.SimSeconds + clean.SimSeconds
			art.Cells = append(art.Cells, FailStopCell{
				N: n, Devices: k, KillIter: kill,
				CleanSeconds:        clean.SimSeconds,
				ParitySeconds:       parity.SimSeconds,
				ParityOverheadPct:   100 * (parity.SimSeconds/clean.SimSeconds - 1),
				RecoverySeconds:     killed.SimSeconds,
				RecoveryOverheadPct: 100 * (killed.SimSeconds/clean.SimSeconds - 1),
				RestartSeconds:      restart,
				RestartRatio:        restart / killed.SimSeconds,
			})
		}
	}
	return art, nil
}

// Report prints the study as a table.
func (art *FailStopArtifact) Report(w io.Writer) {
	fmt.Fprintf(w, "Fail-stop recovery study, FT-Hess at nb=%d (modeled, %s)\n", art.NB, art.GPU)
	fmt.Fprintf(w, "%-6s %-3s %5s %11s %11s %8s %11s %8s %11s %8s\n",
		"N", "K", "kill", "clean", "parity", "parity%", "recovery", "recov%", "restart", "ratio")
	for _, c := range art.Cells {
		fmt.Fprintf(w, "%-6d %-3d %5d %10.4fs %10.4fs %7.2f%% %10.4fs %7.2f%% %10.4fs %7.2fx\n",
			c.N, c.Devices, c.KillIter,
			c.CleanSeconds, c.ParitySeconds, c.ParityOverheadPct,
			c.RecoverySeconds, c.RecoveryOverheadPct,
			c.RestartSeconds, c.RestartRatio)
	}
	last := art.Cells[len(art.Cells)-1]
	fmt.Fprintf(w, "at the largest cell (N=%d, K=%d): surviving the loss beats a restart %.2fx\n",
		last.N, last.Devices, last.RestartRatio)
}
