// Quickstart: reduce a random matrix to upper Hessenberg form with the
// fault-tolerant hybrid algorithm and verify the factorization.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/matrix"
)

func main() {
	const n = 256
	a := matrix.Random(n, n, 42)

	res, err := core.Reduce(a, core.Options{Algorithm: core.FaultTolerant, NB: 32})
	if err != nil {
		log.Fatal(err)
	}

	h := res.H()
	fmt.Printf("reduced %dx%d matrix with %s (nb=%d)\n", n, n, res.Algorithm, res.NB)
	fmt.Printf("H is upper Hessenberg: %v\n", h.IsUpperHessenberg(0))
	residual, orthogonality := res.Checks(a)
	fmt.Printf("residual  ‖A−QHQᵀ‖₁/(N‖A‖₁) = %.3e\n", residual)
	fmt.Printf("orthogonality ‖QQᵀ−I‖₁/N    = %.3e\n", orthogonality)
	fmt.Printf("simulated hybrid time: %.4fs (%.1f model GFLOPS)\n", res.SimSeconds, res.ModelGFLOPS)
	fmt.Printf("soft errors detected: %d (none injected)\n", res.Detections)
}
