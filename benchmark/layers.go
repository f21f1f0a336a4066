package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// residualTol is the bound on ‖A−QHQᵀ‖₁/(N‖A‖₁) and ‖QQᵀ−I‖₁/N that a
// reference reduction must meet (the internal/ft test tolerance).
const residualTol = 1e-13

// verifyReference checks a reference reduction of a with the LAPACK
// residuals and records how long the check took.
func (e *env) verifyReference(a *matrix.Matrix, r *core.Result) error {
	t0 := time.Now()
	q, h := r.Q(), r.H()
	fr := lapack.FactorizationResidual(a, q, h)
	or := lapack.OrthogonalityResidual(q)
	e.res.verify = append(e.res.verify, time.Since(t0).Seconds())
	if !(fr <= residualTol) || !(or <= residualTol) {
		return fmt.Errorf("reference residuals %.3g / %.3g exceed %g", fr, or, residualTol)
	}
	return nil
}

// overheadPct is the FT-vs-baseline modeled time overhead in percent.
func overheadPct(ft, base float64) float64 { return 100 * (ft - base) / base }

// devices returns opt with k freshly built simulated devices (one
// classic device when k is 0), and those devices so their counters can
// be read after the run.
func devices(opt core.Options, k int, mode gpu.Mode) (core.Options, []*gpu.Device) {
	if k == 0 {
		opt.Device = gpu.New(sim.K40c(), mode)
		return opt, []*gpu.Device{opt.Device}
	}
	opt.Devices = make([]*gpu.Device, k)
	for i := range opt.Devices {
		opt.Devices[i] = gpu.NewIndexed(sim.K40c(), mode, i)
	}
	return opt, opt.Devices
}

// gpuAcc sums the device counters of traced ops.
type gpuAcc struct{ ops, kernels, transfers, bytes float64 }

func (g *gpuAcc) add(devs []*gpu.Device) {
	g.ops++
	for _, d := range devs {
		c, b := d.TransferStats()
		g.kernels += float64(d.KernelCount())
		g.transfers += float64(c)
		g.bytes += float64(b)
	}
}

// ftAcc sums the resilience counters of traced ops.
type ftAcc struct {
	ops, detections, recoveries, qcorr, subChecks, subDet float64
	// falseDet counts detections on fault-free runs (traced or not).
	falseDet float64
	// injected and corrected count faulted ops and those whose output
	// stayed within tolerance.
	injected, corrected float64
}

func (f *ftAcc) add(r *core.Result) {
	f.ops++
	f.detections += float64(r.Detections)
	f.recoveries += float64(r.Recoveries)
	f.qcorr += float64(r.QCorrections)
	f.subChecks += float64(r.SubstrateChecks)
	f.subDet += float64(r.SubstrateDetections)
}

// falseDetections counts every FT event a fault-free run raised.
func falseDetections(r *core.Result) int {
	return r.Detections + r.QCorrections + r.SubstrateDetections
}

// layers holds the per-layer counters a workload accumulates.
type layers struct {
	gpu gpuAcc
	ft  ftAcc
	// rejected counts submissions the server refused with 429.
	rejected float64
}

// report publishes the accumulated gpu and ft counters.
func (l *layers) report(e *env) {
	e.res.layer["gpu.kernels_per_op"] = ratio(l.gpu.kernels, l.gpu.ops)
	e.res.layer["gpu.transfers_per_op"] = ratio(l.gpu.transfers, l.gpu.ops)
	e.res.layer["gpu.mbytes_moved_per_op"] = ratio(l.gpu.bytes, l.gpu.ops) / 1e6
	e.res.layer["ft.detections_per_op"] = ratio(l.ft.detections, l.ft.ops)
	e.res.layer["ft.recoveries_per_op"] = ratio(l.ft.recoveries, l.ft.ops)
	e.res.layer["ft.q_corrections_per_op"] = ratio(l.ft.qcorr, l.ft.ops)
	e.res.layer["ft.substrate_checks_per_op"] = ratio(l.ft.subChecks, l.ft.ops)
	e.res.layer["ft.substrate_detections_per_op"] = ratio(l.ft.subDet, l.ft.ops)
	e.res.layer["ft.false_detections"] = l.ft.falseDet
	e.res.layer["ft.corrected_ratio"] = ratio(l.ft.corrected, l.ft.injected)
	e.res.layer["serve.rejected"] = l.rejected
}

// probeConfig is the reduction a workload's layer probes run: the
// workload's own order, pool size, substrate and execution mode.
type probeConfig struct {
	a        *matrix.Matrix
	k        int // the workload's device count (0: one classic device)
	fused    bool
	costOnly bool
	// fault, when set, adds a faulted arm for the recovery cost.
	fault *fault.Plan
}

// probeReps is how many times each probe arm runs; probes report
// medians.
const probeReps = 3

// probe runs the layer probes of a traced run: direct BLAS kernel calls,
// MatrixDigest, the host LAPACK reference, and paired reduction arms
// (FT vs baseline, pool sizes, with vs without a fault, cost-only
// dispatch).
func (e *env) probe(c probeConfig) {
	id := e.rec.begin("probes", e.root)
	defer e.rec.finish(id)
	e.probeBLAS(id)
	e.probeDigest(id)
	if !c.costOnly { // the host LAPACK reference needs real arithmetic
		e.probeLapack(id, c.a)
	}
	e.probeArms(id, c)
}

// timeIt returns the wall seconds of f, recorded as a span under parent.
func (e *env) timeIt(name string, parent int, f func()) float64 {
	return tracing{rec: e.rec, parent: parent}.timed(name, f)
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.Float64() - 0.5
	}
	return s
}

// probeBLAS times the hot kernel shapes directly: the rank-nb trailing
// update (m = n = gemmM, k = gemmK) plain and fused-ABFT, paired in
// alternating order; a square Dgemv; and a long-k Dgemm.
func (e *env) probeBLAS(parent int) {
	p := e.p
	rng := newRand(e.cfg.seed, 0xb1a5)
	m, k := p.gemmM, p.gemmK
	a, b, c := randSlice(rng, m*k), randSlice(rng, k*m), make([]float64, m*m)
	plain := func() { blas.Dgemm(blas.NoTrans, blas.NoTrans, m, m, k, 1, a, m, b, k, 0, c, m) }
	fused := func() {
		if _, err := blas.DgemmFT(blas.NoTrans, blas.NoTrans, m, m, k, 1, a, m, b, k, 0, c, m); err != nil {
			e.fail("blas probe: DgemmFT: %v", err)
		}
	}
	var tp, ratios []float64
	for i := 0; i < 10; i++ {
		var x, y float64
		if i%2 == 0 {
			x = e.timeIt("blas.Dgemm", parent, plain)
			y = e.timeIt("blas.DgemmFT", parent, fused)
		} else {
			y = e.timeIt("blas.DgemmFT", parent, fused)
			x = e.timeIt("blas.Dgemm", parent, plain)
		}
		tp = append(tp, x)
		ratios = append(ratios, y/x)
	}
	e.res.layer["blas.dgemm_k32_gflops"] = sim.GemmFlops(m, m, k) / median(tp) / 1e9
	e.res.layer["blas.dgemm_ft_k32_overhead_frac"] = median(ratios) - 1

	n := p.gemvN
	ga, x, y := randSlice(rng, n*n), randSlice(rng, n), make([]float64, n)
	var tv []float64
	for i := 0; i < 30; i++ {
		tv = append(tv, e.timeIt("blas.Dgemv", parent, func() {
			blas.Dgemv(blas.NoTrans, n, n, 1, ga, n, x, 1, 0, y, 1)
		}))
	}
	// Computed bytes: the matrix once plus x read and y written.
	e.res.layer["blas.dgemv_n1024_gbps"] = float64(8*n*n+16*n) / median(tv) / 1e9

	q := p.gemmCube
	qa, qb, qc := randSlice(rng, q*q), randSlice(rng, q*q), make([]float64, q*q)
	var tc []float64
	for i := 0; i < 5; i++ {
		tc = append(tc, e.timeIt("blas.Dgemm", parent, func() {
			blas.Dgemm(blas.NoTrans, blas.NoTrans, q, q, q, 1, qa, q, qb, q, 0, qc, q)
		}))
	}
	e.res.layer["blas.dgemm_512_gflops"] = sim.GemmFlops(q, q, q) / median(tc) / 1e9
}

// probeDigest times core.MatrixDigest, the result cache's key, at the
// two orders the serving path and the reference job use.
func (e *env) probeDigest(parent int) {
	for _, n := range e.p.digestNs {
		a := matrix.Random(n, n, uint64(n))
		var ts []float64
		for i := 0; i < 5; i++ {
			ts = append(ts, e.timeIt("core.MatrixDigest", parent, func() { core.MatrixDigest(a) }))
		}
		e.res.layer[fmt.Sprintf("core.digest_n%d_s", n)] = median(ts)
	}
}

// probeLapack times the plain host reference (LAPACK DGEHRD through
// core.Reduce CPUOnly) on the workload's input, multi-threaded and with
// the BLAS pinned to one thread, and relates the reference check to the
// op latency.
func (e *env) probeLapack(parent int, a *matrix.Matrix) {
	flops := sim.HessenbergFlops(a.Rows)
	run := func() float64 {
		var ts []float64
		for i := 0; i < probeReps; i++ {
			ts = append(ts, e.timeIt("lapack.Dgehrd", parent, func() {
				if _, err := core.Reduce(a, core.Options{Algorithm: core.CPUOnly}); err != nil {
					e.fail("lapack probe: %v", err)
				}
			}))
		}
		return flops / median(ts) / 1e9
	}
	e.res.layer["lapack.dgehrd_gflops"] = run()
	prev := blas.SetMaxProcs(1)
	e.res.layer["lapack.dgehrd_1t_gflops"] = run()
	blas.SetMaxProcs(prev)
	e.res.layer["lapack.verify_ratio"] = ratio(median(e.res.verify), median(e.res.lat))
}

// probeArms runs paired reduction arms on the probe input, rotating the
// arm order between repetitions so drift hits every arm alike:
//
//	ft_k0, ft_k1, ft_k2  the FT reduction on 0 (classic), 1 and 2 devices
//	base_kw           the non-FT hybrid baseline at the workload's K
//	fault             ft_kw with one injected fault (when configured)
//
// plus cost-only runs of ft_kw for the simulator's own dispatch cost.
func (e *env) probeArms(parent int, c probeConfig) {
	mode := gpu.Real
	if c.costOnly {
		mode = gpu.CostOnly
	}
	substrate := ""
	if c.fused {
		substrate = "fused"
	}
	type arm struct {
		name string
		k    int
		alg  core.Algorithm
		mode gpu.Mode
		hook bool
	}
	arms := []arm{
		{"ft_k0", 0, core.FaultTolerant, mode, false},
		{"ft_k1", 1, core.FaultTolerant, mode, false},
		{"ft_k2", 2, core.FaultTolerant, mode, false},
		{"base_kw", c.k, core.Baseline, mode, false},
		{"dispatch", c.k, core.FaultTolerant, gpu.CostOnly, false},
	}
	if c.fault != nil {
		arms = append(arms, arm{"fault", c.k, core.FaultTolerant, mode, true})
	}
	wall := map[string][]float64{}
	sims := map[string]float64{}
	kernels := map[string]float64{}
	for rep := 0; rep < probeReps; rep++ {
		for j := range arms {
			a := arms[(j+rep)%len(arms)]
			opt := core.Options{Algorithm: a.alg}
			if a.alg == core.FaultTolerant {
				opt.Substrate = substrate
			}
			if a.hook {
				opt.Hook = fault.New(*c.fault)
			}
			opt, devs := devices(opt, a.k, a.mode)
			var res *core.Result
			var err error
			dt := e.timeIt("probe."+a.name, parent, func() { res, err = core.Reduce(c.a, opt) })
			if err != nil {
				e.fail("probe arm %s: %v", a.name, err)
				continue
			}
			wall[a.name] = append(wall[a.name], dt)
			sims[a.name] = res.SimSeconds
			var kc int64
			for _, d := range devs {
				kc += d.KernelCount()
			}
			kernels[a.name] = float64(kc)
		}
	}
	kw := fmt.Sprintf("ft_k%d", c.k)
	paired := func(x, y string) float64 {
		var rs []float64
		for i := range min(len(wall[x]), len(wall[y])) {
			rs = append(rs, wall[x][i]/wall[y][i])
		}
		return median(rs)
	}
	e.res.layer["hybrid.reduce_s"] = median(wall["base_kw"])
	e.res.layer["devpool.k1_vs_k0_wall_ratio"] = paired("ft_k1", "ft_k0")
	e.res.layer["devpool.k2_vs_k1_wall_ratio"] = paired("ft_k2", "ft_k1")
	e.res.layer["devpool.modeled_k2_speedup"] = ratio(sims["ft_k1"], sims["ft_k2"])
	if c.fault != nil {
		e.res.layer["ft.recovery_wall_frac"] = paired("fault", kw) - 1
	}
	dispatch := median(wall["dispatch"])
	e.res.layer["gpu.dispatch_share"] = ratio(dispatch, median(wall[kw]))
	e.res.layer["gpu.dispatch_us_per_kernel"] = ratio(dispatch, kernels["dispatch"]) * 1e6
}
