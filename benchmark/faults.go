package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/matrix"
)

// ft-faults-pool: the same layers as hess-n1024 used differently. Every
// reduction (N=512, nb=32, a pool of two devices, fused-ABFT substrate)
// takes exactly one seeded transient fault, cycling through the paper's
// three areas and the active panel, so detection, in-place correction
// and Q correction run alongside the fused kernels and the pool's slab
// dispatch.

const streamFaults = 0xfa17

// faultTol bounds max|ΔPacked| and max|ΔTau| of a recovered run against
// the fault-free reference: 10·n·ε·‖A‖₁. Recovered results are not
// bit-identical (the correction is computed from checksum sums of n
// terms), so digests cannot be compared, and the deviation grows with
// n‖A‖₁: the internal/ft tests' fixed 1e-11 at n ≤ 200 is this bound's
// order there, while at n = 512 seeded faults reach 1.7e-11 (0.6·n·ε·‖A‖₁).
func faultTol(a *matrix.Matrix) float64 {
	return 10 * float64(a.Rows) * 0x1p-52 * a.Norm1()
}

// faultPlan draws op i's single fault: the area cycles through 1, 2, 3
// and the panel, in an order that also covers all four in the even and
// the odd ops (a traced run traces every other op); the iteration is
// uniform in [1, iters-2]; the corruption is an additive delta or a flip
// of a high mantissa bit. Area 3 (the host Q store) takes only deltas:
// the injector adds nothing for a bit flip there.
func faultPlan(rng *rand.Rand, i, n int) fault.Plan {
	iters := fault.BlockedIterations(n, 32)
	p := fault.Plan{
		Area:       fault.Area(1 + (i+i/4)%4),
		TargetIter: 1 + rng.IntN(max(iters-2, 1)),
		Seed:       rng.Uint64(),
	}
	if p.Area != fault.Area3 && rng.IntN(2) == 0 {
		p.BitFlip = true
		p.Bit = uint(44 + rng.IntN(8))
	} else {
		p.Delta = 0.5 + 3*rng.Float64()
	}
	return p
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

func runFaults(e *env) error {
	n, k := e.p.faultN, e.p.faultK
	type input struct {
		a          *matrix.Matrix
		ref        *core.Result
		baseDigest string
		tol        float64
	}
	var inputs []input
	var gflops, overhead []float64
	var l layers
	// One rep sets up one input: generate it, reduce it fault-free and
	// verify that reference, then reduce it with the baseline on the same
	// pool, which is bit-identical to fault-free FT on a pool.
	err := e.setup(func(rep int) error {
		a := matrix.Random(n, n, inputSeed(e.cfg.seed, streamFaults, rep))
		ref, err := core.Reduce(a, core.Options{DeviceCount: k, Substrate: "fused"})
		if err != nil {
			return err
		}
		if err := e.verifyReference(a, ref); err != nil {
			return err
		}
		if falseDetections(ref) != 0 {
			return errors.New("reference run raised FT events on a fault-free input")
		}
		base, err := core.Reduce(a, core.Options{Algorithm: core.Baseline, DeviceCount: k})
		if err != nil {
			return err
		}
		if base.Digest() != ref.Digest() {
			return errors.New("pool baseline differs from the verified fault-free FT reference")
		}
		gflops = append(gflops, ref.ModelGFLOPS)
		overhead = append(overhead, overheadPct(ref.SimSeconds, base.SimSeconds))
		inputs = append(inputs, input{a, ref, base.Digest(), faultTol(a)})
		return nil
	})
	if err != nil {
		return err
	}
	e.res.e2e["modeled_gflops"] = median(gflops)
	e.res.e2e["modeled_ft_overhead_pct"] = median(overhead)

	rng := newRand(e.cfg.seed, streamFaults)
	e.closedLoop(func(i int, t tracing) (sample, func() error, error) {
		in := inputs[i%len(inputs)]
		plan := faultPlan(rng, i, n)
		inj := fault.New(plan)
		var ftSecs, ftCPU, baseSecs float64
		var res, base *core.Result
		var err, berr error
		ft := func() {
			opt, devs := devices(core.Options{Substrate: "fused", Hook: inj, Obs: t.sim}, k, gpu.Real)
			cpu0 := t.times.cpu
			ftSecs = t.timed("core.Reduce", func() { res, err = core.Reduce(in.a, opt) })
			ftCPU = t.times.cpu - cpu0
			if t.rec != nil && err == nil {
				l.gpu.add(devs)
				l.ft.add(res)
			}
		}
		baseline := func() {
			opt, _ := devices(core.Options{Algorithm: core.Baseline}, k, gpu.Real)
			baseSecs = t.timed("core.Reduce baseline", func() { base, berr = core.Reduce(in.a, opt) })
		}
		switch {
		case !t.paired:
			ft()
		case i%2 == 0:
			ft()
			baseline()
		default:
			baseline()
			ft()
		}
		s := sample{lat: ftSecs, cpu: ftCPU}
		if err != nil {
			return s, nil, fmt.Errorf("fault %+v: %w", plan, err)
		}
		if berr != nil {
			return s, nil, berr
		}
		if t.paired {
			s.ratios = []float64{ftSecs / baseSecs}
		}
		return s, func() error {
			if len(inj.Log) != 1 {
				return fmt.Errorf("fault %+v: %d injections, want 1", plan, len(inj.Log))
			}
			if base != nil && base.Digest() != in.baseDigest {
				return errors.New("baseline digest differs from its reference")
			}
			l.ft.injected++
			if err := closeTo(res, in.ref, in.tol); err != nil {
				return fmt.Errorf("fault %+v left %w", plan, err)
			}
			l.ft.corrected++
			return nil
		}, nil
	})

	if e.rec != nil {
		e.blasLayer(e.res.tracedWall)
		e.simLayer(e.simReg)
		l.report(e)
		plan := faultPlan(newRand(e.cfg.seed, streamFaults^1), 1, n)
		e.probe(probeConfig{a: inputs[0].a, k: k, fused: true, fault: &plan})
	}
	return nil
}
