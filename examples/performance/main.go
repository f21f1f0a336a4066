// Performance sweep at the paper's matrix sizes: the cost-only device
// model compares MAGMA-Hess against FT-Hess (Figure 6's no-fault curves)
// and reports where the resilience overhead goes.
//
//	go run ./examples/performance
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/matrix"
)

func main() {
	sizes := []int{1022, 2046, 3070, 4030, 5182, 6014, 7038, 8062, 9086, 10110}
	fmt.Printf("%8s %14s %14s %12s\n", "N", "MAGMA GFLOPS", "FT GFLOPS", "overhead")
	for _, n := range sizes {
		a := matrix.Shape(n, n) // cost-only: data never touched
		base, err := core.Reduce(a, core.Options{Algorithm: core.Baseline, CostOnly: true, NB: 32})
		if err != nil {
			log.Fatal(err)
		}
		ftRes, err := core.Reduce(a, core.Options{Algorithm: core.FaultTolerant, CostOnly: true, NB: 32})
		if err != nil {
			log.Fatal(err)
		}
		ov := (ftRes.SimSeconds - base.SimSeconds) / base.SimSeconds
		fmt.Printf("%8d %14.1f %14.1f %11.2f%%\n", n, base.ModelGFLOPS, ftRes.ModelGFLOPS, 100*ov)
	}
	fmt.Println("\nThe overhead is O(N²) extra work against the reduction's 10/3·N³:")
	fmt.Println("it decays roughly as 1/N, the paper's Figure 6 trend.")
}
