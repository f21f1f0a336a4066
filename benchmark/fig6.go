package main

import (
	"fmt"
	"runtime/debug"
	"slices"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/matrix"
)

// fig6-model: the paper's Figure 6 grid in cost-only mode — FT and the
// baseline at every paper size (1022 … 10110) plus an FT pool of four
// devices at two sizes. Nothing is computed, so the wall time is the
// simulator itself: device dispatch, scheduling, the cost model, and the
// host-side copy of the input every reduction makes. The modeled GFLOPS
// and FT overhead are the paper's headline numbers. The seed shuffles
// the order of the grid in every pass.

const streamFig6 = 0xf166

// gridPoint is one reduction of the grid.
type gridPoint struct {
	n   int
	alg core.Algorithm
	k   int
}

func (g gridPoint) String() string { return fmt.Sprintf("%v n=%d k=%d", g.alg, g.n, g.k) }

// modeled is what the cost model reported for one grid point.
type modeled struct{ secs, gflops float64 }

func runFig6(e *env) error {
	p := e.p
	// A pass runs the grid in a seeded order of units: a paper size's FT
	// and baseline points back to back (in seeded order), or one pool
	// point. Its latency is all its points; each FT/baseline pair gives
	// one ft_wall_ratio sample.
	var units [][]gridPoint
	maxN := 0
	for _, n := range p.fig6Sizes {
		units = append(units, []gridPoint{{n, core.FaultTolerant, 0}, {n, core.Baseline, 0}})
		maxN = max(maxN, n)
	}
	for _, n := range p.fig6Pool {
		units = append(units, []gridPoint{{n, core.FaultTolerant, p.fig6PoolK}})
	}
	// Cost-only reductions never read the input, so every order shares
	// one backing array of untouched (zero) pages. A reduction clones its
	// n×n input, so before each point (untimed) the heap is collected and
	// freed memory returned to the OS: the peak stays at about one clone
	// of the largest order (0.8 GB), and every point starts alike.
	buf := make([]float64, maxN*maxN)
	input := func(n int) *matrix.Matrix { return matrix.FromColMajor(n, n, n, buf[:n*n]) }
	rng := newRand(e.cfg.seed, streamFig6)

	pass := func(t tracing, l *layers) (sample, map[gridPoint]modeled, error) {
		order := slices.Clone(units)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		sims := map[gridPoint]modeled{}
		var s sample
		var devs []*gpu.Device
		for _, u := range order {
			pts := slices.Clone(u)
			if rng.IntN(2) == 0 {
				slices.Reverse(pts)
			}
			walls := map[core.Algorithm]float64{}
			for _, g := range pts {
				opt, d := devices(core.Options{Algorithm: g.alg, Obs: t.sim}, g.k, gpu.CostOnly)
				debug.FreeOSMemory()
				var res *core.Result
				var err error
				walls[g.alg] = t.timed("core.Reduce "+g.String(), func() { res, err = core.Reduce(input(g.n), opt) })
				if err != nil {
					return s, nil, fmt.Errorf("%v: %w", g, err)
				}
				s.lat += walls[g.alg]
				if g.alg == core.FaultTolerant {
					l.ft.falseDet += float64(falseDetections(res))
				}
				sims[g] = modeled{res.SimSeconds, res.ModelGFLOPS}
				devs = append(devs, d...)
			}
			if len(pts) == 2 {
				s.ratios = append(s.ratios, walls[core.FaultTolerant]/walls[core.Baseline])
			}
		}
		if t.rec != nil {
			l.gpu.add(devs)
		}
		s.cpu = t.times.cpu
		return s, sims, nil
	}

	var l layers
	// A rep models the headline pair, FT and the baseline at the largest
	// order, which every timed pass must then reproduce exactly.
	ftTop, baseTop := gridPoint{maxN, core.FaultTolerant, 0}, gridPoint{maxN, core.Baseline, 0}
	var ref map[gridPoint]modeled
	var top []map[gridPoint]modeled
	err := e.setup(func(rep int) error {
		m := map[gridPoint]modeled{}
		for _, g := range []gridPoint{ftTop, baseTop} {
			debug.FreeOSMemory()
			res, err := core.Reduce(input(g.n), core.Options{Algorithm: g.alg, CostOnly: true})
			if err != nil {
				return err
			}
			m[g] = modeled{res.SimSeconds, res.ModelGFLOPS}
		}
		top = append(top, m)
		return sameModel(top[0], m)
	})
	if err != nil {
		return err
	}
	e.res.e2e["modeled_gflops"] = top[0][ftTop].gflops
	e.res.e2e["modeled_ft_overhead_pct"] = overheadPct(top[0][ftTop].secs, top[0][baseTop].secs)

	// The first timed pass must match the headline pair; every later
	// pass must match the first everywhere.
	e.closedLoop(func(i int, t tracing) (sample, func() error, error) {
		s, sims, err := pass(t, &l)
		return s, func() error {
			if ref == nil {
				if err := sameModel(top[0], sims); err != nil {
					return err
				}
				ref = sims
			}
			return sameModel(ref, sims)
		}, err
	})
	if l.ft.falseDet != 0 {
		e.fail("fault-free cost-only runs raised %v FT events", l.ft.falseDet)
	}

	if e.rec != nil {
		e.blasLayer(e.res.tracedWall)
		e.simLayer(e.simReg)
		l.report(e)
		e.probe(probeConfig{a: input(p.fig6Probe), costOnly: true})
	}
	return nil
}

// sameModel reports whether a pass modeled every grid point exactly as
// the reference pass did.
func sameModel(ref, got map[gridPoint]modeled) error {
	for g, want := range ref {
		if got[g] != want {
			return fmt.Errorf("%v modeled %+v, reference %+v", g, got[g], want)
		}
	}
	return nil
}
