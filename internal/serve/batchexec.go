package serve

import (
	"context"
	"math"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/sim"
)

// executeBatch runs a batched job on the throughput engine: items are
// grouped by (N, nb) and packed back-to-back onto fractional device
// lanes, each item either served from the result cache or reduced on a
// fresh lane-named device whose demand is charged to the device's
// virtual clock. One item's failure cancels the job's remaining groups
// (first error in item order wins). Runs on the worker goroutine.
func (s *Server) executeBatch(j *Job) (*JobResult, error) {
	req := j.req
	mode := gpu.Real
	if req.CostOnly {
		mode = gpu.CostOnly
	}
	items := make([]batch.Item, len(req.Batch))
	for i, b := range req.Batch {
		nb := b.NB
		if nb == 0 {
			nb = req.NB
		}
		items[i] = batch.Item{Index: i, N: b.N, NB: nb, Seed: b.Seed}
	}
	trace := j.traceContext()

	runner := func(ctx context.Context, it batch.Item, lane batch.Lane) (any, *gpu.Device, error) {
		a := req.generate(it.N, it.Seed)
		opt := runOptions(req, it.NB)
		opt.Ctx, opt.Obs, opt.Journal, opt.Trace = ctx, s.reg, j.journal, trace

		// The cache key digests the generated input, so two batched jobs
		// (or a batched and a single job) sharing an item share its entry.
		// The leader computes while holding its lane, so coalesced
		// followers waiting on other lanes always make progress. A hit
		// returns no device and charges the lane nothing.
		var dev *gpu.Device
		run, _, err := s.reduceCached(ctx, req, a, opt, func() (*core.Result, error) {
			// A fresh device per item: the simulated clocks are absolute,
			// so reuse would leak earlier items' time into later ones. The
			// lane name ("d0.l1") flows into metric labels and trace rows.
			dev = gpu.NewNamed(sim.K40c(), mode, lane.Name())
			if j.tracer != nil {
				dev.EnableTrace()
			}
			j.setDevice(dev)
			opt.Device = dev
			if s.testMutateOptions != nil {
				s.testMutateOptions(j, &opt)
			}
			return core.Reduce(a, opt)
		})
		if err != nil {
			return nil, dev, err
		}
		return run, dev, nil
	}

	runs, err := s.engine.Run(j.ctx, items, runner)
	if err != nil {
		return nil, err
	}

	out := &JobResult{
		ID:        j.ID,
		Algorithm: req.algorithm(),
		NB:        req.NB,
		Items:     make([]BatchItemResult, len(runs)),
		// Job-level numerics live on the items for batched jobs.
		Residual:      obs.Float(math.NaN()),
		Orthogonality: obs.Float(math.NaN()),
	}
	var spans []gpu.Span
	var totalSim float64
	for i, r := range runs {
		c := r.Value.(*cachedRun)
		item := c.itemResult(r.Item.Index, r.Item.Seed, r.Dev == nil)
		if r.Dev != nil {
			item.Lane, item.LaneStart, item.LaneEnd = r.Lane, r.Start, r.End
			if j.tracer != nil {
				// Shift the item's sim spans by its modeled lane start so the
				// job trace lays the lanes out on the shared virtual clock.
				for _, sp := range r.Dev.Trace() {
					sp.Start += r.Start
					sp.End += r.Start
					spans = append(spans, sp)
				}
			}
		}
		totalSim += float64(item.SimSeconds)
		out.Items[i] = item
	}
	out.SimSeconds = obs.Float(totalSim)
	if j.tracer != nil {
		j.simSpans = spans
	}
	return out, nil
}
