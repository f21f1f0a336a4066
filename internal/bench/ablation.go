package bench

import (
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// Ablations quantifies the design choices the paper credits for the low
// overhead (cost-only simulated time at one representative size):
//
//  1. overlapping the finished-block transfer with the trailing update,
//  2. generating the Q checksums on the otherwise idle CPU,
//  3. detecting per iteration (recovery cost as a function of how late
//     the fault strikes — versus a post-processing scheme that would
//     always pay the full-factorization redo),
//  4. the block size nb.
func Ablations(w io.Writer, n int, params sim.Params) {
	a := matrix.Shape(n, n)
	run := func(o hybrid.Options) float64 {
		o.Device = gpu.New(params, gpu.CostOnly)
		r, err := hybrid.Reduce(a, o)
		if err != nil {
			panic(err)
		}
		return r.SimSeconds
	}
	runFT := func(o ft.Options) float64 {
		o.Device = gpu.New(params, gpu.CostOnly)
		r, err := ft.Reduce(a, o)
		if err != nil {
			panic(err)
		}
		return r.SimSeconds
	}

	fmt.Fprintf(w, "Ablations at N=%d (cost-only simulated seconds)\n", n)

	// 1. Overlap of the asynchronous D2H with the G update.
	over := run(hybrid.Options{NB: 32})
	serial := run(hybrid.Options{NB: 32, DisableOverlap: true})
	fmt.Fprintf(w, "  overlap D2H∥G-update : %.4fs with, %.4fs without (%.2f%% saved)\n",
		over, serial, 100*(serial-over)/serial)

	// 2. Q-checksum generation on the idle CPU: FT with and without it.
	ftOn := runFT(ft.Options{NB: 32})
	ftOff := runFT(ft.Options{NB: 32, DisableQProtection: true})
	fmt.Fprintf(w, "  Q checksums on CPU   : %.4fs with, %.4fs without (cost hidden: %.3f%%)\n",
		ftOn, ftOff, 100*(ftOn-ftOff)/ftOff)

	// 3. Detection cadence: recovery cost vs the moment of the fault.
	base := run(hybrid.Options{NB: 32})
	fmt.Fprintln(w, "  per-iteration detection: overhead vs fault moment (Area 2)")
	iters := fault.BlockedIterations(n, 32)
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		target := int(frac * float64(iters))
		if target >= iters {
			target = iters - 1
		}
		in := fault.New(fault.Plan{Area: fault.Area2, TargetIter: target, Seed: 3})
		t := runFT(ft.Options{NB: 32, Hook: in})
		fmt.Fprintf(w, "    fault at %3.0f%% of iterations: overhead %6.2f%%\n",
			100*frac, 100*(t-base)/base)
	}

	// 3b. Versus the post-processing scheme of the prior work (Du et al.):
	// detection only at the end, recovery by full re-execution.
	inMid := fault.New(fault.Plan{Area: fault.Area2, TargetIter: iters / 2, Seed: 3})
	perIter := runFT(ft.Options{NB: 32, Hook: inMid})
	inMid2 := fault.New(fault.Plan{Area: fault.Area2, TargetIter: iters / 2, Seed: 3})
	postProc := runFT(ft.Options{NB: 32, Hook: inMid2, PostProcess: true})
	fmt.Fprintf(w, "  vs post-processing ABFT (one mid-run fault): per-iteration %.4fs (%.2f%%), post-processing %.4fs (%.2f%%)\n",
		perIter, 100*(perIter-base)/base, postProc, 100*(postProc-base)/base)

	// 4. Block size sweep.
	fmt.Fprintln(w, "  block size nb sweep (baseline / FT seconds):")
	for _, nb := range []int{16, 32, 64, 128} {
		b := run(hybrid.Options{NB: nb})
		f := runFT(ft.Options{NB: nb})
		fmt.Fprintf(w, "    nb=%3d: %.4fs / %.4fs (overhead %.2f%%)\n", nb, b, f, 100*(f-b)/b)
	}
}

// Trace prints a textual walk of one blocked iteration, the counterpart
// of the paper's Figures 1 and 4.
func Trace(w io.Writer, n, nb int) {
	a := matrix.Random(n, n, 1)
	fmt.Fprintf(w, "One blocked iteration of FT_DGEHRD at N=%d, nb=%d (Figures 1/4):\n", n, nb)
	steps := []string{
		"  (a) beginning of iteration: trailing matrix on device, checksums valid",
		"  (b) panel P sent to host; DLAHR2 on CPU (+ per-column device GEMV); checkpoint taken",
		"  (c) right update to Mre on device (Y·Vᵀ, checksum column via Vᵀe)",
		"  (d) finished block → host (async) ∥ right update to Gfe (includes checksum row via Yce)",
		"  (e) left update DLARFB to trail(A)fe (checksum column rides as an extra column)",
		"  (f) end of iteration: Sre vs Sce compared; checksums valid for yellow+red regions",
	}
	for _, s := range steps {
		fmt.Fprintln(w, s)
	}
	dev := gpu.New(sim.K40c(), gpu.Real)
	res, err := ft.Reduce(a, ft.Options{NB: nb, Device: dev})
	if err != nil {
		panic(err)
	}
	kernels := dev.KernelCount()
	transfers, bytes := dev.TransferStats()
	fmt.Fprintf(w, "run: %d blocked iterations, %d device kernels, %d transfers (%.1f MB), %.4fs simulated, %.1f GFLOPS\n",
		res.BlockedIters, kernels, transfers, float64(bytes)/1e6, res.SimSeconds, res.ModelGFLOPS)
}
