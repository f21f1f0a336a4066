package bench

import (
	"fmt"
	"io"
	"os"

	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// Timeline runs one fault-tolerant reduction with execution tracing and
// summarizes lane occupancy; with a non-empty tracePath it also writes a
// Chrome trace-event JSON (open in chrome://tracing or Perfetto) — the
// visual counterpart of the paper's Figure 1/4 iteration diagrams.
func Timeline(w io.Writer, n, nb int, params sim.Params, tracePath string) {
	dev := gpu.New(params, gpu.CostOnly)
	dev.EnableTrace()
	if _, err := ft.Reduce(matrix.Shape(n, n), ft.Options{NB: nb, Device: dev}); err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "Execution timeline of FT-Hess at N=%d, nb=%d (simulated lanes):\n", n, nb)
	dev.TraceSummary(w)
	fmt.Fprintf(w, "  makespan %.4fs\n", dev.Elapsed())
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if err := dev.WriteChromeTrace(f); err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "  Chrome trace written to %s (%d spans)\n", tracePath, len(dev.Trace()))
	}
}
