// Command fthess reduces a (generated) matrix to upper Hessenberg form on
// the simulated hybrid platform, optionally injecting transient errors,
// and reports residuals, resilience statistics and simulated performance.
//
// Examples:
//
//	fthess -n 512                          # fault-tolerant, no faults
//	fthess -n 512 -alg baseline            # fault-prone MAGMA-style run
//	fthess -n 512 -inject area2 -iter 3    # inject one error, watch recovery
//	fthess -n 4030 -costonly               # model-only timing at paper scale
//	fthess -n 2048 -devices 4 -costonly    # 4-GPU pool, sharded trailing update
//	fthess -n 256 -devices 2 -checksum     # pool run + result digest (CI probe)
//	fthess -n 256 -devices 3 \
//	       -kill-device 1 -kill-iter 2 -kill-point update -checksum
//	                                       # kill a device mid-run: the run
//	                                       # restarts on the two survivors and
//	                                       # the digest matches the fault-free
//	                                       # line
//	fthess -n 256 -eig                     # full eigenvalue pipeline
//	fthess -n 256 -sym -inject area2       # FT-DSYTRD, one error recovered
//	fthess -n 4030 -sym -costonly          # modeled FT-DSYTRD time
//	fthess -sym -mm a.mtx                  # FT-DSYTRD of a file's lower triangle
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/devpool"
	"repro/internal/fault"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// writeFile writes one exportable artifact, exiting on failure.
func writeFile(path, what string, emit func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "create %s: %v\n", path, err)
		os.Exit(1)
	}
	if err == nil {
		err = emit(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s to %s\n", what, path)
}

// symHook injects one additive error into the trailing symmetric block.
type symHook struct {
	iter  int
	fired bool
}

func (h *symHook) BeforeIteration(iter, panel int, w *matrix.Matrix) {
	if iter != h.iter || h.fired {
		return
	}
	h.fired = true
	n := w.Rows
	rng := matrix.NewRNG(uint64(n) * 31)
	col := panel + rng.Intn(n-panel-1)
	row := col + 1 + rng.Intn(n-col-1)
	w.Add(row, col, 1.0)
	fmt.Printf("injected +1.0 at (%d,%d) before iteration %d\n", row, col, iter)
}

// runSymmetric runs the future-work path, the symmetric tridiagonal
// reduction (FT-DSYTRD under -alg ft), and its QL eigenvalues.
func runSymmetric(a *matrix.Matrix, opt core.SymOptions, inject string, iter int, metricsPath, eventsPath string) {
	n := a.Rows
	if metricsPath != "" {
		opt.Obs = obs.NewRegistry()
		// Fold achieved host BLAS throughput (blas_flops_total,
		// blas_op_seconds_total) into the same export.
		defer blas.SetObs(blas.SetObs(opt.Obs))
	}
	if eventsPath != "" {
		opt.Journal = &obs.Journal{}
	}
	if inject != "" {
		opt.Hook = &symHook{iter: iter}
	}
	res, err := core.ReduceSym(a, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tridiagonalization failed: %v\n", err)
		os.Exit(1)
	}
	name := "DSYTRD"
	if opt.FaultTolerant {
		name = "FT-DSYTRD"
	}
	fmt.Printf("%s  N=%d nb=%d\n", name, res.N, res.NB)
	if res.SimSeconds > 0 {
		fmt.Printf("simulated time: %.4fs (%.1f GFLOPS)\n", res.SimSeconds, res.ModelGFLOPS)
	}
	if opt.FaultTolerant {
		fmt.Printf("resilience: %d detection(s), %d recovery(ies), %d correction(s)\n",
			res.Detections, res.Recoveries, len(res.CorrectedH))
	}
	if !opt.CostOnly {
		residual, orthogonality := res.Checks(a)
		fmt.Printf("residual ‖A−QTQᵀ‖₁/(N‖A‖₁) = %.3e\n", residual)
		fmt.Printf("orthogonality ‖QQᵀ−I‖₁/N  = %.3e\n", orthogonality)
		d, err := res.Eigenvalues()
		if err != nil {
			fmt.Fprintf(os.Stderr, "eigenvalues failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("eigenvalue range: [%.6f, %.6f]\n", d[0], d[n-1])
	}
	if metricsPath != "" {
		writeFile(metricsPath, "metrics", opt.Obs.WritePrometheus)
	}
	if eventsPath != "" {
		writeFile(eventsPath, "event journal", opt.Journal.WriteJSONL)
	}
}

// usedFlag names a flag setting and whether the command line made it.
type usedFlag struct {
	name string
	set  bool
}

// refuse exits 2 on the first set flag: a combination the chosen path
// would otherwise ignore silently (fthessd rejects the same requests with
// a 400).
func refuse(why string, flags ...usedFlag) {
	for _, f := range flags {
		if f.set {
			fmt.Fprintf(os.Stderr, "%s %s\n", f.name, why)
			os.Exit(2)
		}
	}
}

// readMatrixMarket loads a square input from a MatrixMarket file,
// exiting on failure.
func readMatrixMarket(path string) *matrix.Matrix {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "open %s: %v\n", path, err)
		os.Exit(1)
	}
	a, err := matrix.ReadMatrixMarket(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "parse %s: %v\n", path, err)
		os.Exit(1)
	}
	if a.Rows != a.Cols {
		fmt.Fprintf(os.Stderr, "%s: matrix is %dx%d, need square\n", path, a.Rows, a.Cols)
		os.Exit(1)
	}
	fmt.Printf("loaded %dx%d matrix from %s\n", a.Rows, a.Cols, path)
	return a
}

func main() {
	n := flag.Int("n", 512, "matrix order (ignored with -mm)")
	mmPath := flag.String("mm", "", "load the input from a MatrixMarket file instead of generating it")
	nb := flag.Int("nb", 32, "block size")
	alg := flag.String("alg", "ft", "algorithm: ft|baseline|cpu")
	seed := flag.Uint64("seed", 1, "workload seed")
	costOnly := flag.Bool("costonly", false, "model time only (no arithmetic)")
	lookahead := flag.Bool("lookahead", true, "factor panel k+1 under trailing update k (bit-identical; modeled time only)")
	noOverlap := flag.Bool("no-overlap", false, "serialize the finished-block D2H after the trailing update (ft/baseline on one device)")
	devices := flag.Int("devices", 0, "simulated GPU pool size (0 = single device; ft/baseline only)")
	checksum := flag.Bool("checksum", false, "print a SHA-256 over the packed result and tau (bit-identical across -devices)")
	inject := flag.String("inject", "", "inject one error: area1|area2|area3")
	count := flag.Int("count", 1, "number of simultaneous errors")
	iter := flag.Int("iter", 1, "iteration at whose start to inject")
	bitflip := flag.Bool("bitflip", false, "flip a mantissa bit instead of adding a delta")
	substrate := flag.String("substrate", "", "BLAS FT substrate: swept (default) or fused (in-kernel ABFT Dgemm + DMR level-2, incremental halo maintenance; ft only)")
	killPoint := flag.String("kill-point", "", "kill a device at this point: boundary|panel|update|recovery (a pool restarts on the survivors; a single device fails)")
	killDevice := flag.Int("kill-device", 0, "pool slot of the device to kill (with -kill-point)")
	killIter := flag.Int("kill-iter", 1, "blocked iteration at which the kill strikes (with -kill-point)")
	eig := flag.Bool("eig", false, "continue to eigenvalues (Francis QR)")
	sym := flag.Bool("sym", false, "symmetric path: tridiagonalization (FT-DSYTRD under -alg ft) + QL eigenvalues")
	metricsPath := flag.String("metrics", "", "write run metrics in Prometheus text format to this file")
	eventsPath := flag.String("events", "", "write the FT event journal as JSONL to this file")
	tracePath := flag.String("trace", "", "write a Chrome trace-event timeline to this file (Perfetto-loadable)")
	flag.Parse()

	algorithms := map[string]core.Algorithm{"ft": core.FaultTolerant, "baseline": core.Baseline, "cpu": core.CPUOnly}
	algorithm, ok := algorithms[*alg]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *alg)
		os.Exit(2)
	}
	if *devices < 0 {
		fmt.Fprintf(os.Stderr, "-devices %d must be >= 0\n", *devices)
		os.Exit(2)
	}
	if *substrate != "" && *substrate != ft.SubstrateSwept && *substrate != ft.SubstrateFused {
		fmt.Fprintf(os.Stderr, "unknown -substrate %q (want swept or fused)\n", *substrate)
		os.Exit(2)
	}
	var area fault.Area
	switch *inject {
	case "":
	case "area1":
		area = fault.Area1
	case "area2":
		area = fault.Area2
	case "area3":
		area = fault.Area3
	default:
		fmt.Fprintf(os.Stderr, "unknown injection area %q\n", *inject)
		os.Exit(2)
	}
	if algorithm != core.FaultTolerant {
		refuse("needs -alg ft", usedFlag{"-inject", *inject != ""}, usedFlag{"-kill-point", *killPoint != ""},
			usedFlag{"-substrate fused", *substrate == ft.SubstrateFused})
	}
	if algorithm == core.CPUOnly {
		refuse("needs a simulated device (-alg ft|baseline)", usedFlag{"-trace", *tracePath != ""},
			usedFlag{"-devices", *devices > 0}, usedFlag{"-lookahead=false", !*lookahead},
			usedFlag{"-no-overlap", *noOverlap})
	}
	if *devices > 0 {
		refuse("is ignored by a device pool (-devices > 0)", usedFlag{"-no-overlap", *noOverlap})
	}
	// These flags have non-zero defaults, so only an explicit setting
	// tells that they were asked for.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *killPoint == "" {
		refuse("needs -kill-point", usedFlag{"-kill-device", set["kill-device"]}, usedFlag{"-kill-iter", set["kill-iter"]})
	}
	if *inject == "" {
		refuse("needs -inject", usedFlag{"-iter", set["iter"]}, usedFlag{"-count", set["count"]},
			usedFlag{"-bitflip", set["bitflip"]})
	}
	if *sym {
		refuse("is not available on the -sym path", usedFlag{"-trace", *tracePath != ""},
			usedFlag{"-devices", *devices > 0}, usedFlag{"-substrate fused", *substrate == ft.SubstrateFused},
			usedFlag{"-checksum", *checksum}, usedFlag{"-kill-point", *killPoint != ""},
			usedFlag{"-lookahead=false", !*lookahead}, usedFlag{"-no-overlap", *noOverlap},
			usedFlag{"-bitflip", *bitflip}, usedFlag{"-count > 1", *count > 1},
			usedFlag{"-alg cpu", algorithm == core.CPUOnly})
	}
	kp, err := fault.ParseKillPoint(*killPoint)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if slots := max(*devices, 1); *killPoint != "" && (*killDevice < 0 || *killDevice >= slots) {
		fmt.Fprintf(os.Stderr, "-kill-device %d outside the pool [0,%d)\n", *killDevice, slots)
		os.Exit(2)
	}
	// A cost-only reduction holds no values: there is no result to digest
	// and no Hessenberg factor to iterate on.
	if *costOnly && *checksum {
		fmt.Fprintln(os.Stderr, "-checksum requires real execution")
		os.Exit(2)
	}
	if *costOnly && *eig {
		fmt.Fprintln(os.Stderr, "-eig requires real execution")
		os.Exit(2)
	}

	var a *matrix.Matrix
	switch {
	case *mmPath != "":
		a = readMatrixMarket(*mmPath)
	case *costOnly:
		// Cost-only mode never reads the input: pass its shape only.
		a = matrix.Shape(*n, *n)
	case *sym:
		a = matrix.RandomSymmetric(*n, *seed)
	default:
		a = matrix.Random(*n, *n, *seed)
	}
	if *sym {
		// The symmetric path strikes one element of the trailing block
		// (Area 2) at a blocked-iteration boundary; a plan it would not
		// place as stated is refused, as fault.Plan.Check does for the
		// Hessenberg path.
		if *inject != "" && area != fault.Area2 {
			fmt.Fprintf(os.Stderr, "-sym -inject supports area2 only (the trailing symmetric block), not %s\n", *inject)
			os.Exit(2)
		}
		if iters := hybrid.SymBlockedIterations(a.Rows, *nb); *inject != "" && (*iter < 0 || *iter >= iters) {
			runs := fmt.Sprintf("blocked iterations 0..%d", iters-1)
			if iters == 0 {
				runs = "no blocked iteration"
			}
			fmt.Fprintf(os.Stderr, "-sym -inject: iteration %d never runs: an n=%d, nb=%d symmetric reduction runs %s\n", *iter, a.Rows, *nb, runs)
			os.Exit(2)
		}
		opt := core.SymOptions{NB: *nb, FaultTolerant: algorithm == core.FaultTolerant, CostOnly: *costOnly}
		runSymmetric(a, opt, *inject, *iter, *metricsPath, *eventsPath)
		return
	}

	opt := core.Options{
		Algorithm: algorithm, NB: *nb, CostOnly: *costOnly, DeviceCount: *devices,
		DisableLookahead: !*lookahead, DisableOverlap: *noOverlap,
		Substrate: *substrate,
	}
	if *metricsPath != "" {
		opt.Obs = obs.NewRegistry()
		// Host BLAS throughput counters ride along in the same registry so
		// the Prometheus export shows substrate GFLOP/s next to the modeled
		// device numbers.
		blas.SetObs(opt.Obs)
	}
	if *eventsPath != "" {
		opt.Journal = &obs.Journal{}
	}
	var dev *gpu.Device
	var poolDevs []*gpu.Device
	if *tracePath != "" {
		mode := gpu.Real
		if *costOnly {
			mode = gpu.CostOnly
		}
		if *devices > 0 {
			// Explicit pool so every device records its own trace lanes;
			// the merged export shows one host lane plus three per device.
			poolDevs = make([]*gpu.Device, *devices)
			for i := range poolDevs {
				poolDevs[i] = gpu.NewIndexed(sim.K40c(), mode, i)
				poolDevs[i].EnableTrace()
			}
			opt.Devices = poolDevs
		} else {
			dev = gpu.New(sim.K40c(), mode)
			dev.EnableTrace()
			opt.Device = dev
		}
	}
	var plans []fault.Plan
	if *inject != "" {
		plans = append(plans, fault.Plan{Area: area, TargetIter: *iter, Count: *count, Seed: *seed, BitFlip: *bitflip, Bit: 60})
	}
	if *killPoint != "" {
		plans = append(plans, fault.Plan{TargetIter: *killIter, KillPoint: kp, KillDevice: *killDevice})
	}
	// A plan that cannot strike as stated is refused, not run: a count
	// above its area's capacity would never finish drawing.
	for _, p := range plans {
		if err := p.Check(a.Rows, *nb, fault.BlockedIterations(a.Rows, *nb)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	var in *fault.Injector
	if len(plans) > 0 {
		in = fault.NewSchedule(plans...)
		in.Journal = opt.Journal
		opt.Hook = in
	}

	res, err := core.Reduce(a, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reduction failed: %v\n", err)
		os.Exit(1)
	}

	if *devices > 0 {
		fmt.Printf("%s  N=%d nb=%d devices=%d\n", res.Algorithm, res.N, res.NB, *devices)
	} else {
		fmt.Printf("%s  N=%d nb=%d\n", res.Algorithm, res.N, res.NB)
	}
	if res.SimSeconds > 0 {
		fmt.Printf("simulated time: %.4fs (%.1f GFLOPS)\n", res.SimSeconds, res.ModelGFLOPS)
	}
	if in != nil && *inject != "" {
		fmt.Printf("injected: %d fault(s)", len(in.Log))
		for _, l := range in.Log {
			fmt.Printf("  (%d,%d) Δ=%.3g@iter%d", l.Row, l.Col, l.Delta, l.Iter)
		}
		fmt.Println()
	}
	if res.Algorithm == core.FaultTolerant {
		fmt.Printf("resilience: %d detection(s), %d recovery(ies), %d H correction(s), %d Q correction(s)\n",
			res.Detections, res.Recoveries, len(res.CorrectedH), res.QCorrections)
		if res.DeviceLosses > 0 {
			fmt.Printf("fail-stop: %d device loss(es), %d restart(s)\n",
				res.DeviceLosses, res.FailStopRecoveries)
		}
		if *substrate == ft.SubstrateFused {
			fmt.Printf("substrate: fused, %d in-kernel check(s), %d detection(s)\n",
				res.SubstrateChecks, res.SubstrateDetections)
		}
	}
	if !*costOnly {
		residual, orthogonality := res.Checks(a)
		fmt.Printf("residual ‖A−QHQᵀ‖₁/(N‖A‖₁) = %.3e\n", residual)
		fmt.Printf("orthogonality ‖QQᵀ−I‖₁/N  = %.3e\n", orthogonality)
	}
	if *checksum {
		// The multi-device schedule is bit-identical at every pool size, so
		// this digest is the CI determinism probe: -devices 1 and -devices K
		// must print the same line for the same seed.
		fmt.Printf("result sha256: %s\n", res.Digest())
	}

	if *metricsPath != "" {
		writeFile(*metricsPath, "metrics", opt.Obs.WritePrometheus)
	}
	if *eventsPath != "" {
		writeFile(*eventsPath, "event journal", opt.Journal.WriteJSONL)
	}
	if *tracePath != "" {
		if dev != nil {
			writeFile(*tracePath, "chrome trace", dev.WriteChromeTrace)
		} else {
			writeFile(*tracePath, "chrome trace", devpool.Wrap(poolDevs).WriteChromeTrace)
		}
	}
	// The observability sinks describe the reduction that just ran; detach
	// them so the -eig re-reduction below doesn't double-count into them
	// (DeviceCount stays: -eig re-reduces on a fresh pool of the same size).
	opt.Obs, opt.Journal, opt.Device, opt.Devices = nil, nil, nil, nil
	blas.SetObs(nil)

	if *eig {
		eigs, _, err := core.Eigenvalues(a, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eigenvalues failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("eigenvalues (%d, sorted by real part; first 10 shown):\n", len(eigs))
		for i, e := range eigs {
			if i == 10 {
				fmt.Println("  ...")
				break
			}
			fmt.Printf("  % .6f %+.6fi\n", e.Re, e.Im)
		}
	}
}
