// Resilience campaign: sweep injection areas and moments against both the
// fault-prone baseline and the fault-tolerant algorithm, reproducing the
// paper's evaluation narrative at laptop scale — the baseline silently
// returns corrupted factorizations, FT-Hess detects and repairs.
//
//	go run ./examples/resilience
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sim"
)

func main() {
	const n, nb = 158, 32
	a := matrix.Random(n, n, 158)

	clean, err := core.Reduce(a, core.Options{Algorithm: core.Baseline, NB: nb})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-20s | %-28s | %-46s\n", "scenario", "baseline (fault-prone)", "FT-Hess")
	fmt.Printf("%-20s | %-12s %-15s | %-9s %-12s %-12s %s\n",
		"", "polluted", "residual", "detected", "residual", "orthog.", "vs clean")
	for _, area := range []fault.Area{fault.Area1, fault.Area2, fault.Area3} {
		for _, m := range []fault.Moment{fault.Beginning, fault.Middle, fault.End} {
			iter := fault.IterForMoment(n, nb, m, area)
			seed := uint64(iter) + uint64(area)*17
			scenario := fmt.Sprintf("%v @ %v (it %d)", area, m, iter)

			// Fault-prone baseline: the error lands in the output.
			inBase := fault.New(fault.Plan{Area: area, TargetIter: iter, Seed: seed})
			dev := gpu.New(sim.K40c(), gpu.Real)
			dirty, err := hybrid.Reduce(a, hybrid.Options{NB: nb, Device: dev, BeforeIteration: inBase.HybridHook(dev)})
			if err != nil {
				log.Fatalf("%s baseline: %v", scenario, err)
			}
			polluted := matrix.Diff(clean.Packed, dirty.Packed, 1e-10).Polluted
			baseResidual := lapack.FactorizationResidual(a, dirty.Q(), dirty.H())

			// Fault-tolerant run with the same plan.
			inFT := fault.New(fault.Plan{Area: area, TargetIter: iter, Seed: seed})
			res, err := core.Reduce(a, core.Options{NB: nb, Hook: inFT})
			if err != nil {
				log.Fatalf("%s FT: %v", scenario, err)
			}
			diff := clean.Packed.Sub(res.Packed).MaxAbs()
			verdict := "matches clean ✓"
			if !(diff <= 1e-9) { // a NaN diff is a mismatch too
				verdict = fmt.Sprintf("DIFFERS by %.2e", diff)
			}
			detected := res.Detections > 0 || res.QCorrections > 0
			residual, orthogonality := res.Checks(a)
			fmt.Printf("%-20s | %-12d %-15.2e | %-9v %-12.2e %-12.2e %s\n",
				scenario, polluted, baseResidual, detected, residual, orthogonality, verdict)
		}
	}
}
