package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/fault"
	"repro/internal/ft"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Cell is one grid point of a sweep: a fully specified fault-injection
// configuration. Cells are numbered in canonical grid order (N outermost,
// then NB, lambda, region, bit range, device count, schedule, kill rate,
// substrate),
// and that numbering — together with the sweep seed — fixes every trial's
// random stream.
type Cell struct {
	Index  int          `json:"cell"`
	N      int          `json:"n"`
	NB     int          `json:"nb"`
	Lambda float64      `json:"lambda"`
	Region fault.Region `json:"region"`
	MinBit uint         `json:"min_bit"`
	MaxBit uint         `json:"max_bit"`
	// Devices selects the execution substrate: 0 runs the legacy
	// single-device schedule, k ≥ 1 a k-device pool with per-slab ABFT
	// (the multi-device path is bit-identical across pool sizes, so a
	// devices axis separates substrate effects from fault coverage).
	Devices int `json:"devices,omitempty"`
	// NoLookahead disables the depth-1 lookahead for the cell's trials.
	// The default schedule factors panel k+1 under trailing update k;
	// both compute bit-identical results, so this axis separates the
	// schedule's effect on modeled time from fault coverage — which the
	// split checksum algebra must keep unchanged.
	NoLookahead bool `json:"no_lookahead,omitempty"`
	// KillRate is the per-trial probability of one fail-stop device loss
	// (uniform iteration, device, and kill window). On a device-pool cell
	// the reduction survives a loss by restarting on the surviving
	// devices (DESIGN.md §13), so its trials measure loss survival; on a
	// single-device cell a sampled kill is always fatal (uncorrectable).
	KillRate float64 `json:"kill_rate,omitempty"`
	// Substrate selects the BLAS fault-tolerance substrate: "" (the
	// default sweeps-only configuration, kept empty so old journals
	// resume-match it) or ft.SubstrateFused, which verifies every device
	// BLAS call in-kernel and refreshes the panel-slab halo
	// incrementally. Bit-identical results; the axis separates per-call
	// detection from the iteration-boundary sweeps' fault coverage.
	Substrate string `json:"substrate,omitempty"`
}

// SubstrateName returns the cell's substrate for display: "swept" for the
// default empty value, the literal name otherwise.
func (c Cell) SubstrateName() string {
	if c.Substrate == "" {
		return "swept"
	}
	return c.Substrate
}

// Schedule names the cell's update schedule (ScheduleLookahead or
// ScheduleSerial).
func (c Cell) Schedule() string {
	if c.NoLookahead {
		return ScheduleSerial
	}
	return ScheduleLookahead
}

// The two update schedules a cell can run: the default depth-1 lookahead
// and the serial (lookahead-off) order. Bit-identical results either way;
// only the modeled time differs.
const (
	ScheduleLookahead = "lookahead"
	ScheduleSerial    = "serial"
)

// Sweep runs a grid of campaign cells on a bounded worker pool.
type Sweep struct {
	// Ns is the grid of matrix orders (required, each > 0).
	Ns []int
	// NBs is the grid of block sizes (default {32}).
	NBs []int
	// Lambdas is the grid of expected error counts per run (default {1}).
	Lambdas []float64
	// Regions is the grid of target regions (default {fault.RegionAll}).
	Regions []fault.Region
	// BitRanges is the grid of inclusive [min, max] flipped-bit ranges
	// (default {{20, 62}}).
	BitRanges [][2]uint
	// DeviceCounts is the grid of simulated device-pool sizes (default
	// {0} = the legacy single-device schedule; see Cell.Devices).
	DeviceCounts []int
	// Schedules is the grid of update schedules: ScheduleLookahead
	// and/or ScheduleSerial (default {ScheduleLookahead}).
	Schedules []string
	// KillRates is the grid of fail-stop device-loss probabilities per
	// trial (default {0} = no losses; see Cell.KillRate).
	KillRates []float64
	// Substrates is the grid of BLAS FT substrates: "swept" (or "",
	// normalized to "" so old journals resume-match) and/or "fused"
	// (default {"swept"}; see Cell.Substrate).
	Substrates []string
	// TrialsPerCell is the number of independent runs per cell (required).
	TrialsPerCell int
	// Seed fixes every trial's random stream (with the cell and trial
	// indices); the same seed reproduces the sweep bitwise.
	Seed uint64
	// Workers bounds the trial-level parallelism (default 1). Results are
	// bitwise identical at any worker count.
	Workers int
	// ResidualTol classifies a result as correct (default 1e-12).
	ResidualTol float64
	// Params calibrates the simulated device (sim.K40c() if zero).
	Params sim.Params
	// TrialSink, if set, receives one JSON line per completed trial, in
	// canonical (cell, trial) order, flushed as the completed prefix
	// grows — the resumable artifact.
	TrialSink io.Writer
	// Resume holds trial records from a previous partial run (see
	// LoadTrialJSONL); matching trials are reused instead of re-executed
	// and are not re-emitted to TrialSink.
	Resume map[TrialKey]TrialRecord
	// Obs, if set, receives campaign_trials_total{outcome},
	// campaign_injections_total, campaign_cells_total and the
	// campaign_seconds gauge.
	Obs *obs.Registry
	// Progress, if set, is called after every completed trial with the
	// done and total counts (serialized; cheap work only).
	Progress func(done, total int)
	// Triage re-runs every failed trial (SilentCorrupt / Uncorrectable)
	// with an FT event journal attached and embeds the minimal repro in
	// the cell report (set by RunSweep).
	Triage bool

	// mats caches the shared read-only input matrix per order N.
	mats map[int]*matrix.Matrix
}

// TrialKey identifies one trial of one cell within a sweep.
type TrialKey struct {
	Cell  int
	Trial int
}

// CellReport aggregates one cell's trials.
type CellReport struct {
	Cell   Cell           `json:"cell_config"`
	Trials int            `json:"trials"`
	ByName map[string]int `json:"outcomes"`

	Injections   int `json:"injections"`
	Detections   int `json:"detections"`
	Recoveries   int `json:"recoveries"`
	Reexecutions int `json:"reexecutions"`
	QCorrections int `json:"q_corrections"`
	// Fail-stop tallies (kill-rate cells): permanent device deaths across
	// the cell's trials and the restarts on the survivors that outlived
	// them.
	DeviceLosses       int `json:"device_losses,omitempty"`
	FailStopRecoveries int `json:"failstop_recoveries,omitempty"`
	// Fused-substrate tallies (substrate "fused" cells): per-call
	// in-kernel verifications and detections across the cell's trials.
	SubstrateChecks     int `json:"substrate_checks,omitempty"`
	SubstrateDetections int `json:"substrate_detections,omitempty"`

	// FaultedTrials counts trials with ≥1 injection; DetectedTrials the
	// subset where the scheme reacted (a detection, a Q correction, or an
	// explicit Uncorrectable report). Coverage is their ratio.
	FaultedTrials  int     `json:"faulted_trials"`
	DetectedTrials int     `json:"detected_trials"`
	Coverage       float64 `json:"coverage"`

	WorstResidual JSONFloat `json:"worst_residual"`

	// Overhead of carrying faults: mean simulated seconds of the faulted
	// trials against the clean-run baseline for the same (N, NB).
	MeanFaultedSimSeconds float64 `json:"mean_faulted_sim_seconds"`
	BaselineSimSeconds    float64 `json:"baseline_sim_seconds"`
	OverheadPct           float64 `json:"overhead_pct"`

	// Repros holds the minimal reproduction records (with captured FT
	// event journals) of every failed trial in this cell.
	Repros []Repro `json:"repros,omitempty"`

	outcomes [numOutcomes]int
}

// Outcome reads one outcome's count.
func (c *CellReport) Outcome(o Outcome) int { return c.outcomes[o] }

// SweepReport aggregates a full sweep.
type SweepReport struct {
	Seed          uint64         `json:"seed"`
	TrialsPerCell int            `json:"trials_per_cell"`
	Cells         []CellReport   `json:"cells"`
	TotalTrials   int            `json:"total_trials"`
	Injections    int            `json:"total_injections"`
	ByName        map[string]int `json:"outcomes"`
	// WallSeconds is the only nondeterministic field; it is excluded from
	// the bench artifact so that artifact stays bitwise reproducible.
	WallSeconds float64 `json:"-"`

	outcomes [numOutcomes]int
	results  [][]trialResult
}

// Outcome reads one outcome's total count across all cells.
func (r *SweepReport) Outcome(o Outcome) int { return r.outcomes[o] }

// Record adds one trial with the given outcome to the aggregate tallies.
// The engine uses it internally; tests use it to fabricate reports.
func (r *SweepReport) Record(o Outcome) {
	r.outcomes[o]++
	if r.ByName == nil {
		r.ByName = map[string]int{}
	}
	r.ByName[o.String()]++
}

// cells expands the grid in canonical order.
func (s *Sweep) cells() []Cell {
	var out []Cell
	for _, n := range s.Ns {
		for _, nb := range s.NBs {
			for _, lam := range s.Lambdas {
				for _, reg := range s.Regions {
					for _, br := range s.BitRanges {
						for _, dk := range s.DeviceCounts {
							for _, sched := range s.Schedules {
								for _, kr := range s.KillRates {
									for _, sub := range s.Substrates {
										out = append(out, Cell{
											Index: len(out), N: n, NB: nb, Lambda: lam,
											Region: reg, MinBit: br[0], MaxBit: br[1],
											Devices:     dk,
											NoLookahead: sched == ScheduleSerial,
											KillRate:    kr,
											Substrate:   sub,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// validate fills defaults and rejects impossible grids.
func (s *Sweep) validate() error {
	if len(s.Ns) == 0 {
		return errors.New("campaign: sweep needs at least one N")
	}
	for _, n := range s.Ns {
		if n <= 1 {
			return fmt.Errorf("campaign: invalid N %d", n)
		}
	}
	if s.TrialsPerCell <= 0 {
		return errors.New("campaign: TrialsPerCell must be positive")
	}
	if len(s.NBs) == 0 {
		s.NBs = []int{32}
	}
	for _, nb := range s.NBs {
		if nb <= 0 {
			return fmt.Errorf("campaign: invalid NB %d", nb)
		}
	}
	if len(s.Lambdas) == 0 {
		s.Lambdas = []float64{1}
	}
	for _, l := range s.Lambdas {
		if l <= 0 {
			return fmt.Errorf("campaign: invalid lambda %g", l)
		}
	}
	if len(s.Regions) == 0 {
		s.Regions = []fault.Region{fault.RegionAll}
	}
	if len(s.BitRanges) == 0 {
		s.BitRanges = [][2]uint{{20, 62}}
	}
	for _, br := range s.BitRanges {
		if br[0] > br[1] || br[1] > 63 {
			return fmt.Errorf("campaign: invalid bit range %d..%d", br[0], br[1])
		}
	}
	if len(s.DeviceCounts) == 0 {
		s.DeviceCounts = []int{0}
	}
	for _, dk := range s.DeviceCounts {
		if dk < 0 || dk > 64 {
			return fmt.Errorf("campaign: invalid device count %d", dk)
		}
	}
	if len(s.Schedules) == 0 {
		s.Schedules = []string{ScheduleLookahead}
	}
	for _, sched := range s.Schedules {
		if sched != ScheduleLookahead && sched != ScheduleSerial {
			return fmt.Errorf("campaign: unknown schedule %q (want %s or %s)",
				sched, ScheduleLookahead, ScheduleSerial)
		}
	}
	if len(s.KillRates) == 0 {
		s.KillRates = []float64{0}
	}
	for _, kr := range s.KillRates {
		if kr < 0 || kr > 1 {
			return fmt.Errorf("campaign: invalid kill rate %g (want 0..1)", kr)
		}
	}
	if len(s.Substrates) == 0 {
		s.Substrates = []string{""}
	}
	for i, sub := range s.Substrates {
		switch sub {
		case "", ft.SubstrateSwept:
			// Normalize so default-substrate records stay byte-compatible
			// with journals written before the axis existed.
			s.Substrates[i] = ""
		case ft.SubstrateFused:
		default:
			return fmt.Errorf("campaign: unknown substrate %q (want %s or %s)",
				sub, ft.SubstrateSwept, ft.SubstrateFused)
		}
	}
	if s.ResidualTol <= 0 {
		s.ResidualTol = 1e-12
	}
	if s.Params == (sim.Params{}) {
		s.Params = sim.K40c()
	}
	if s.Workers <= 0 {
		s.Workers = 1
	}
	return nil
}

// Run executes the sweep: expand the grid, fan trials out over the worker
// pool, aggregate per-cell reports, and (when Triage is set) capture a
// journaled re-run of every failed trial.
func (s *Sweep) Run() (*SweepReport, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	cells := s.cells()
	results, err := s.runTrials(cells)
	if err != nil {
		return nil, err
	}

	rep := &SweepReport{
		Seed:          s.Seed,
		TrialsPerCell: s.TrialsPerCell,
		ByName:        map[string]int{},
		results:       results,
	}
	baselines := s.baselines(cells)
	for ci, cell := range cells {
		cr := aggregateCell(cell, results[ci], baselines[baseKey{cell.N, cell.NB, cell.Devices, cell.NoLookahead, cell.Substrate}])
		if s.Triage {
			for _, res := range results[ci] {
				o := res.record.outcome()
				if o == SilentCorrupt || o == Uncorrectable {
					cr.Repros = append(cr.Repros, s.triage(cell, res.record))
				}
			}
		}
		rep.Cells = append(rep.Cells, cr)
		rep.TotalTrials += cr.Trials
		rep.Injections += cr.Injections
		for o := 0; o < numOutcomes; o++ {
			rep.outcomes[o] += cr.outcomes[o]
			rep.ByName[Outcome(o).String()] = rep.outcomes[o]
		}
	}
	rep.WallSeconds = time.Since(start).Seconds()

	if s.Obs != nil {
		for o := 0; o < numOutcomes; o++ {
			s.Obs.Counter("campaign_trials_total", obs.L("outcome", Outcome(o).String())).
				Add(float64(rep.outcomes[o]))
		}
		s.Obs.Counter("campaign_injections_total").Add(float64(rep.Injections))
		s.Obs.Counter("campaign_cells_total").Add(float64(len(cells)))
		s.Obs.Gauge("campaign_seconds").Set(rep.WallSeconds)
	}
	return rep, nil
}

// aggregateCell folds one cell's trial records (in trial order, so every
// floating-point reduction has a fixed association order).
func aggregateCell(cell Cell, results []trialResult, baseline float64) CellReport {
	cr := CellReport{Cell: cell, ByName: map[string]int{}}
	faultedSim := 0.0
	faultedRuns := 0
	for _, res := range results {
		r := res.record
		o := r.outcome()
		cr.Trials++
		cr.outcomes[o]++
		cr.Injections += r.Injections
		cr.Detections += r.Detections
		cr.Recoveries += r.Recoveries
		cr.Reexecutions += r.Reexecutions
		cr.QCorrections += r.QCorrections
		cr.DeviceLosses += r.DeviceLosses
		cr.FailStopRecoveries += r.FailStopRecoveries
		cr.SubstrateChecks += r.SubstrateChecks
		cr.SubstrateDetections += r.SubstrateDetections
		if r.Residual > cr.WorstResidual {
			cr.WorstResidual = r.Residual
		}
		if r.Injections > 0 || r.DeviceLosses > 0 {
			cr.FaultedTrials++
			if r.Detections > 0 || r.QCorrections > 0 || r.FailStopRecoveries > 0 || o == Uncorrectable {
				cr.DetectedTrials++
			}
			if r.Err == "" && r.SimSeconds > 0 {
				faultedSim += r.SimSeconds
				faultedRuns++
			}
		}
	}
	for o := 0; o < numOutcomes; o++ {
		cr.ByName[Outcome(o).String()] = cr.outcomes[o]
	}
	if cr.FaultedTrials > 0 {
		cr.Coverage = float64(cr.DetectedTrials) / float64(cr.FaultedTrials)
	}
	cr.BaselineSimSeconds = baseline
	if faultedRuns > 0 {
		cr.MeanFaultedSimSeconds = faultedSim / float64(faultedRuns)
		if baseline > 0 {
			cr.OverheadPct = 100 * (cr.MeanFaultedSimSeconds/baseline - 1)
		}
	}
	return cr
}

// RunSweep is the convenience entry point used by cmd/campaign: triage on,
// everything else as configured.
func RunSweep(s *Sweep) (*SweepReport, error) {
	s.Triage = true
	return s.Run()
}

// Print writes the sweep's aggregate report (deterministic: identical
// bytes for identical seeds at any worker count).
func (r *SweepReport) Print(w io.Writer) {
	fmt.Fprintf(w, "Soft-error sweep campaign: %d cells × %d trials = %d trials, seed %d\n",
		len(r.Cells), r.TrialsPerCell, r.TotalTrials, r.Seed)
	fmt.Fprintf(w, "%6s %6s %4s %3s %-9s %-5s %5s %7s %-6s %7s | %6s %6s %6s %6s %6s | %8s %9s %9s\n",
		"cell", "N", "nb", "K", "sched", "sub", "krate", "lambda", "region", "bits", "clean", "recov", "benign", "corrpt", "uncorr", "coverage", "overhead", "worst-res")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%6d %6d %4d %3d %-9s %-5s %5.2f %7.2f %-6s %3d..%2d | %6d %6d %6d %6d %6d | %7.1f%% %8.2f%% %9.2e\n",
			c.Cell.Index, c.Cell.N, c.Cell.NB, c.Cell.Devices, c.Cell.Schedule(), c.Cell.SubstrateName(), c.Cell.KillRate, c.Cell.Lambda, c.Cell.Region,
			c.Cell.MinBit, c.Cell.MaxBit,
			c.Outcome(CleanPass), c.Outcome(Recovered), c.Outcome(SilentBenign),
			c.Outcome(SilentCorrupt), c.Outcome(Uncorrectable),
			100*c.Coverage, c.OverheadPct, c.WorstResidual)
	}
	fmt.Fprintf(w, "totals: %d injections across %d trials\n", r.Injections, r.TotalTrials)
	names := make([]string, 0, len(r.ByName))
	for name := range r.ByName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-14s %5d\n", name, r.ByName[name])
	}
}

// benchArtifact is the schema of BENCH_campaign.json. It deliberately
// excludes wall-clock time so the artifact is bitwise reproducible.
type benchArtifact struct {
	Schema        string         `json:"schema"`
	Seed          uint64         `json:"seed"`
	TrialsPerCell int            `json:"trials_per_cell"`
	TotalTrials   int            `json:"total_trials"`
	Injections    int            `json:"total_injections"`
	Outcomes      map[string]int `json:"outcomes"`
	Cells         []CellReport   `json:"cells"`
}

// WriteBenchJSON writes the machine-readable BENCH_campaign.json artifact.
func (r *SweepReport) WriteBenchJSON(w io.Writer) error {
	art := benchArtifact{
		Schema:        "ft-hess/campaign/v1",
		Seed:          r.Seed,
		TrialsPerCell: r.TrialsPerCell,
		TotalTrials:   r.TotalTrials,
		Injections:    r.Injections,
		Outcomes:      r.ByName,
		Cells:         r.Cells,
	}
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
