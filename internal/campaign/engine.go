package campaign

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// The trial engine. Parallelism never influences results: each trial's
// random stream is derived from (sweep seed, cell index, trial index)
// alone, trials write only their own result slot, and the JSONL sink is
// fed by a contiguous-prefix flusher that emits records in canonical
// (cell-major, trial-minor) order regardless of completion order. A
// -workers 1 and a -workers 64 run of the same sweep therefore produce
// identical bytes everywhere but the wall clock.

// trialResult is one trial's record and whether it was resumed.
type trialResult struct {
	record  TrialRecord
	resumed bool
	err     error
}

// deriveTrialSeed maps (sweep seed, cell, trial) to an independent random
// stream via two SplitMix64 scrambles. Scheduling never touches it.
func deriveTrialSeed(seed uint64, cell, trial int) uint64 {
	r := matrix.NewRNG(seed ^ 0x6a09e667f3bcc909)
	base := r.Uint64()
	h := matrix.NewRNG(base ^ uint64(cell+1)*0x9e3779b97f4a7c15 ^ uint64(trial+1)*0xd1342543de82ef95)
	h.Uint64()
	return h.Uint64()
}

// matrixFor returns (caching) the shared read-only input matrix of order n.
func (s *Sweep) matrixFor(n int) *matrix.Matrix {
	if s.mats == nil {
		s.mats = map[int]*matrix.Matrix{}
	}
	if s.mats[n] == nil {
		s.mats[n] = matrix.Random(n, n, s.Seed+1)
	}
	return s.mats[n]
}

// applyDevices sets a trial's execution substrate: the legacy
// single-device schedule for a zero count, a freshly allocated k-device
// pool (per-slab ABFT, internal/devpool) otherwise. Fresh devices per
// trial keep the simulated clocks independent across parallel workers.
func (s *Sweep) applyDevices(opt *ft.Options, k int) {
	if k <= 0 {
		opt.Device = gpu.New(s.Params, gpu.Real)
		return
	}
	devs := make([]*gpu.Device, k)
	for i := range devs {
		devs[i] = gpu.NewIndexed(s.Params, gpu.Real, i)
	}
	opt.Devices = devs
}

// baseKey identifies a clean-run baseline configuration.
type baseKey struct {
	n, nb, devices int
	noLookahead    bool
	substrate      string
}

// baselines runs one clean (no-injection) reduction per distinct
// (N, NB, devices, schedule) and records its simulated makespan — the
// denominator of each cell's recovery-overhead ratio. Serial and
// deterministic.
func (s *Sweep) baselines(cells []Cell) map[baseKey]float64 {
	out := map[baseKey]float64{}
	for _, c := range cells {
		key := baseKey{c.N, c.NB, c.Devices, c.NoLookahead, c.Substrate}
		if _, ok := out[key]; ok {
			continue
		}
		opt := ft.Options{NB: c.NB, DisableLookahead: c.NoLookahead, Substrate: c.Substrate}
		s.applyDevices(&opt, c.Devices)
		res, err := ft.Reduce(s.matrixFor(c.N), opt)
		if err == nil {
			out[key] = res.SimSeconds
		}
	}
	return out
}

// runTrial executes one trial from its derived seed. journal, when
// non-nil, captures the FT event journal (triage re-runs).
func (s *Sweep) runTrial(cell Cell, trial int, a *matrix.Matrix, journal *obs.Journal) trialResult {
	seed := deriveTrialSeed(s.Seed, cell.Index, trial)
	rng := matrix.NewRNG(seed)
	iters := fault.BlockedIterations(cell.N, cell.NB)
	var plans []fault.Plan
	if iters > 0 {
		plans = samplePlans(rng, cell, iters)
	}

	rec := TrialRecord{Cell: cell, Trial: trial, Seed: seed}
	for _, p := range plans {
		rec.Plans = append(rec.Plans, InjectionSummary{
			Iter: p.TargetIter, Area: p.Area.String(), Bit: p.Bit,
		})
	}
	// Fail-stop axis: with probability KillRate one device dies this
	// trial, at a uniform iteration, device, and kill window. The draws
	// happen only on kill-rate cells, so every other cell's random
	// stream — and its resumable records — is untouched by the axis.
	if cell.KillRate > 0 && iters > 0 && rng.Float64() < cell.KillRate {
		points := []fault.KillPoint{fault.KillBoundary, fault.KillPanel, fault.KillUpdate}
		kp := fault.Plan{
			TargetIter: rng.Intn(iters),
			KillPoint:  points[rng.Intn(len(points))],
		}
		if cell.Devices > 0 {
			kp.KillDevice = rng.Intn(cell.Devices)
		}
		plans = append(plans, kp)
		rec.KillIter = kp.TargetIter
		rec.KillPoint = string(kp.KillPoint)
		rec.KillDevice = kp.KillDevice
	}

	var hook ft.Hook
	var in *fault.Injector
	if len(plans) > 0 {
		in = fault.NewSchedule(plans...)
		in.Journal = journal
		hook = in
	}
	opt := ft.Options{
		NB:               cell.NB,
		Hook:             hook,
		Journal:          journal,
		DisableLookahead: cell.NoLookahead,
		Substrate:        cell.Substrate,
	}
	s.applyDevices(&opt, cell.Devices)
	res, err := ft.Reduce(a, opt)

	if in != nil {
		rec.Injections = len(in.Log)
	}
	var o Outcome
	if err != nil {
		if !errors.Is(err, ft.ErrUncorrectable) && !errors.Is(err, ft.ErrDetectionStorm) {
			rec.Err = err.Error()
			rec.Outcome = "error"
			return trialResult{record: rec, err: fmt.Errorf("campaign cell %d trial %d: %w", cell.Index, trial, err)}
		}
		o = Uncorrectable
		rec.Detections = res.Detections
		rec.Recoveries = res.Recoveries
		rec.Reexecutions = res.Reexecutions
		rec.DeviceLosses = res.DeviceLosses
	} else {
		rec.Detections = res.Detections
		rec.Recoveries = res.Recoveries
		rec.Reexecutions = res.Reexecutions
		rec.QCorrections = res.QCorrections
		rec.DeviceLosses = res.DeviceLosses
		rec.FailStopRecoveries = res.FailStopRecoveries
		rec.SimSeconds = res.SimSeconds
		residual := lapack.FactorizationResidual(a, res.Q(), res.H())
		rec.Residual = JSONFloat(residual)
		correct := residual <= s.ResidualTol
		handled := res.Detections > 0 || res.QCorrections > 0 || res.FailStopRecoveries > 0
		switch {
		case rec.Injections == 0 && res.DeviceLosses == 0:
			o = CleanPass
		case handled && correct:
			o = Recovered
		case correct:
			o = SilentBenign
		default:
			o = SilentCorrupt
		}
	}
	rec.Outcome = o.String()
	rec.out = o
	return trialResult{record: rec}
}

// runTrials fans the sweep's trials out over the worker pool and streams
// completed records (canonical order, contiguous prefix) to TrialSink.
func (s *Sweep) runTrials(cells []Cell) ([][]trialResult, error) {
	nTrials := s.TrialsPerCell
	total := len(cells) * nTrials
	results := make([][]trialResult, len(cells))
	for i := range results {
		results[i] = make([]trialResult, nTrials)
	}

	// Seed the result grid with resumed records; collect the rest as
	// pending work items.
	type item struct{ cell, trial int }
	var pending []item
	completed := make([]bool, total)
	for ci, cell := range cells {
		for t := 0; t < nTrials; t++ {
			rec, ok := s.Resume[TrialKey{Cell: ci, Trial: t}]
			if ok && rec.Err == "" {
				if rec.Cell != cell {
					return nil, fmt.Errorf("campaign: resume record for cell %d trial %d does not match the sweep grid (have %+v, want %+v)",
						ci, t, rec.Cell, cell)
				}
				results[ci][t] = trialResult{record: rec, resumed: true}
				completed[ci*nTrials+t] = true
			} else {
				pending = append(pending, item{ci, t})
			}
		}
	}

	// Pre-generate the shared inputs serially (trials only read them).
	for _, c := range cells {
		s.matrixFor(c.N)
	}

	var (
		mu       sync.Mutex
		cursor   = 0 // canonical flush position
		done     = total - len(pending)
		writeErr error
	)
	flush := func() {
		for cursor < total && completed[cursor] {
			res := results[cursor/nTrials][cursor%nTrials]
			if !res.resumed && s.TrialSink != nil && writeErr == nil {
				writeErr = writeTrialRecord(s.TrialSink, res.record)
			}
			cursor++
		}
	}
	mu.Lock()
	flush() // a fully resumed prefix advances the cursor immediately
	mu.Unlock()

	workers := s.Workers
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	body := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(pending) {
				return
			}
			it := pending[i]
			res := s.runTrial(cells[it.cell], it.trial, s.matrixFor(cells[it.cell].N), nil)
			mu.Lock()
			results[it.cell][it.trial] = res
			completed[it.cell*nTrials+it.trial] = true
			done++
			flush()
			if s.Progress != nil {
				s.Progress(done, total)
			}
			mu.Unlock()
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go body()
	}
	wg.Wait()

	if writeErr != nil {
		return nil, fmt.Errorf("campaign: writing trial record: %w", writeErr)
	}
	// Report the first failure in canonical order, so the error (like the
	// data) is independent of scheduling.
	for ci := range results {
		for _, res := range results[ci] {
			if res.err != nil {
				return nil, res.err
			}
		}
	}
	return results, nil
}
