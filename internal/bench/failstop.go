package bench

import (
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// FailStopCell is one (N, K) point of the fail-stop study (DESIGN.md
// §13): the FT reduction run cost-only on a K-device pool, clean and
// with one device killed mid trailing update. The killed run restarts
// from its input on the K−1 survivors, so its makespan is the time lost
// before the loss plus a clean run on the survivors.
type FailStopCell struct {
	N       int `json:"n"`
	Devices int `json:"devices"`
	// KillIter is the blocked iteration at which the loss strikes (mid
	// schedule) in the killed run.
	KillIter int `json:"kill_iter"`
	// CleanSeconds is the modeled makespan of a run that loses nothing.
	CleanSeconds float64 `json:"clean_seconds"`
	// LossSeconds is the modeled instant of the loss: the work the
	// killed run throws away.
	LossSeconds float64 `json:"loss_seconds"`
	// SurvivorsSeconds is the makespan of a clean run on K−1 devices.
	SurvivorsSeconds float64 `json:"survivors_seconds"`
	// RestartSeconds is the makespan of the killed run, actually run:
	// LossSeconds + SurvivorsSeconds.
	RestartSeconds     float64 `json:"restart_seconds"`
	RestartOverheadPct float64 `json:"restart_overhead_pct"`
}

// FailStopArtifact is the committed BENCH_failstop.json: the cost of
// surviving a device loss by restarting, against a clean run, across
// matrix and pool sizes. Cost-only, hence deterministic.
type FailStopArtifact struct {
	NB    int            `json:"nb"`
	GPU   string         `json:"gpu"`
	Cells []FailStopCell `json:"cells"`
}

// FailStop runs the fail-stop study for every (N, K) in ns × ks (K ≥ 2).
func FailStop(ns, ks []int, nb int, params sim.Params) (*FailStopArtifact, error) {
	art := &FailStopArtifact{NB: nb, GPU: "Tesla K40c (modeled)"}
	for _, n := range ns {
		a := matrix.Shape(n, n)
		kill := fault.BlockedIterations(n, nb) / 2
		for _, k := range ks {
			clean, err := ft.Reduce(a, ft.Options{NB: nb, Devices: pool(params, gpu.CostOnly, k)})
			if err != nil {
				return nil, fmt.Errorf("clean N=%d K=%d: %w", n, k, err)
			}
			survivors, err := ft.Reduce(a, ft.Options{NB: nb, Devices: pool(params, gpu.CostOnly, k-1)})
			if err != nil {
				return nil, fmt.Errorf("survivors N=%d K=%d: %w", n, k-1, err)
			}
			hook := fault.NewSchedule(fault.Plan{
				TargetIter: kill, KillPoint: fault.KillUpdate, KillDevice: k - 1,
			})
			j := obs.NewJournal()
			killed, err := ft.Reduce(a, ft.Options{NB: nb, Devices: pool(params, gpu.CostOnly, k), Hook: hook, Journal: j})
			if err != nil {
				return nil, fmt.Errorf("killed N=%d K=%d: %w", n, k, err)
			}
			if killed.FailStopRecoveries != 1 {
				return nil, fmt.Errorf("killed N=%d K=%d: %d restarts, want 1", n, k, killed.FailStopRecoveries)
			}
			loss := 0.0
			for _, ev := range j.Events() {
				if ev.Kind == obs.KindDeviceLoss {
					loss = ev.SimTime
				}
			}
			art.Cells = append(art.Cells, FailStopCell{
				N: n, Devices: k, KillIter: kill,
				CleanSeconds:       clean.SimSeconds,
				LossSeconds:        loss,
				SurvivorsSeconds:   survivors.SimSeconds,
				RestartSeconds:     killed.SimSeconds,
				RestartOverheadPct: 100 * (killed.SimSeconds/clean.SimSeconds - 1),
			})
		}
	}
	return art, nil
}

// Report prints the study as a table.
func (art *FailStopArtifact) Report(w io.Writer) {
	fmt.Fprintf(w, "Fail-stop restart study, FT-Hess at nb=%d (%s)\n", art.NB, art.GPU)
	fmt.Fprintf(w, "%-6s %-3s %5s %11s %11s %11s %11s %9s\n",
		"N", "K", "kill", "clean", "loss", "survivors", "restart", "restart%")
	for _, c := range art.Cells {
		fmt.Fprintf(w, "%-6d %-3d %5d %10.4fs %10.4fs %10.4fs %10.4fs %8.2f%%\n",
			c.N, c.Devices, c.KillIter,
			c.CleanSeconds, c.LossSeconds, c.SurvivorsSeconds,
			c.RestartSeconds, c.RestartOverheadPct)
	}
	last := art.Cells[len(art.Cells)-1]
	fmt.Fprintf(w, "at the largest cell (N=%d, K=%d): a mid-run loss costs %.1f%% over a clean run; a clean run pays nothing\n",
		last.N, last.Devices, last.RestartOverheadPct)
}
