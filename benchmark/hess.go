package main

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/matrix"
)

// hess-n1024: the compute-bound job a library or CLI user runs — the FT
// reduction with core.Options defaults (N=1024, nb=32, one device,
// lookahead, swept substrate, real arithmetic) — in a closed loop of one
// client over seeded inputs. Host BLAS dominates its wall; serving, the
// cache, faults and the device pool do almost no work. Untraced runs
// pair every op with the non-FT baseline on the same input.

const streamHess = 0x4e55

// closeTo reports whether two factorizations agree within tol (used
// where two schedules legitimately round differently).
func closeTo(x, y *core.Result, tol float64) error {
	dp := x.Packed.Sub(y.Packed).MaxAbs()
	dt := maxAbsDiff(x.Tau, y.Tau)
	if !(dp <= tol) || !(dt <= tol) {
		return fmt.Errorf("max|ΔPacked| %.3g, max|ΔTau| %.3g exceed %.3g", dp, dt, tol)
	}
	return nil
}

func runHess(e *env) error {
	n := e.p.hessN
	type input struct {
		a                  *matrix.Matrix
		digest, baseDigest string
	}
	var inputs []input
	var gflops, overhead []float64
	var l layers
	// One rep sets up one input: generate it, reduce it with FT and
	// verify that reference with the LAPACK residuals, then reduce it with
	// the baseline, whose output must agree with the verified one.
	err := e.setup(func(rep int) error {
		a := matrix.Random(n, n, inputSeed(e.cfg.seed, streamHess, rep))
		ref, err := core.Reduce(a, core.Options{})
		if err != nil {
			return err
		}
		if err := e.verifyReference(a, ref); err != nil {
			return err
		}
		if falseDetections(ref) != 0 {
			return errors.New("reference run raised FT events on a fault-free input")
		}
		base, err := core.Reduce(a, core.Options{Algorithm: core.Baseline})
		if err != nil {
			return err
		}
		if err := closeTo(base, ref, faultTol(a)); err != nil {
			return fmt.Errorf("baseline vs verified FT reference: %w", err)
		}
		gflops = append(gflops, ref.ModelGFLOPS)
		overhead = append(overhead, overheadPct(ref.SimSeconds, base.SimSeconds))
		inputs = append(inputs, input{a, ref.Digest(), base.Digest()})
		return nil
	})
	if err != nil {
		return err
	}
	e.res.e2e["modeled_gflops"] = median(gflops)
	e.res.e2e["modeled_ft_overhead_pct"] = median(overhead)

	e.closedLoop(func(i int, t tracing) (sample, func() error, error) {
		in := inputs[i%len(inputs)]
		var ftSecs, ftCPU, baseSecs float64
		var res, base *core.Result
		var err, berr error
		ft := func() {
			opt, devs := devices(core.Options{Obs: t.sim}, 0, gpu.Real)
			cpu0 := t.times.cpu
			ftSecs = t.timed("core.Reduce", func() { res, err = core.Reduce(in.a, opt) })
			ftCPU = t.times.cpu - cpu0
			if t.rec != nil && err == nil {
				l.gpu.add(devs)
				l.ft.add(res)
			}
		}
		baseline := func() {
			opt, _ := devices(core.Options{Algorithm: core.Baseline}, 0, gpu.Real)
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
		if err := errors.Join(err, berr); err != nil {
			return s, nil, err
		}
		if t.paired {
			s.ratios = []float64{ftSecs / baseSecs}
		}
		return s, func() error {
			l.ft.falseDet += float64(falseDetections(res))
			if falseDetections(res) != 0 {
				return fmt.Errorf("fault-free run raised %d FT events", falseDetections(res))
			}
			if res.Digest() != in.digest {
				return errors.New("result digest differs from the verified reference")
			}
			if base != nil && base.Digest() != in.baseDigest {
				return errors.New("baseline digest differs from its reference")
			}
			return nil
		}, nil
	})

	if e.rec != nil {
		e.blasLayer(e.res.tracedWall)
		e.simLayer(e.simReg)
		l.report(e)
		e.probe(probeConfig{a: inputs[0].a})
	}
	return nil
}
