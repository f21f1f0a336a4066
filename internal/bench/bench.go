// Package bench regenerates every table and figure of the paper's
// evaluation (Section VI) as text reports:
//
//	Table I   — the (simulated) platform specification,
//	Figure 2  — soft-error propagation heat maps in the baseline,
//	Figure 6  — GFLOPS and overhead curves of FT-Hess vs MAGMA-Hess with
//	            single faults in Areas 1/2/3 (cost-only at paper sizes),
//	Table II  — backward-error residuals with and without faults,
//	Table III — orthogonality of Q with and without faults,
//
// plus the ablation studies called out in DESIGN.md and the Studies table
// behind every committed BENCH_*.json artifact. The cmd/experiments
// binary and the root bench_test.go benchmarks are thin wrappers over
// this package.
package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// PaperSizes is the matrix-size grid of the paper's evaluation.
var PaperSizes = []int{1022, 2046, 3070, 4030, 5182, 6014, 7038, 8062, 9086, 10110}

// RealSizes is the laptop-scale grid used when kernels execute real
// arithmetic (Tables II/III; the shape of the paper's grid, scaled down).
var RealSizes = []int{126, 254, 510, 766}

// TableI prints the platform specification this reproduction simulates,
// mirroring the paper's Table I, alongside the calibrated model
// parameters that stand in for the hardware.
func TableI(w io.Writer, p sim.Params) {
	fmt.Fprintln(w, "Table I — Test platform (simulated; substitutions per DESIGN.md)")
	fmt.Fprintln(w, strings.Repeat("-", 72))
	fmt.Fprintf(w, "%-28s %-20s %-20s\n", "", "CPU (modeled)", "GPU (simulated)")
	fmt.Fprintf(w, "%-28s %-20s %-20s\n", "Paper hardware", "Xeon E5-2670", "Tesla K40c")
	fmt.Fprintf(w, "%-28s %-20s %-20s\n", "Sustained DGEMM",
		fmt.Sprintf("%.0f GFLOP/s", p.CPUGemmGFLOPS),
		fmt.Sprintf("%.0f GFLOP/s peak", p.GPUGemmPeakGFLOPS))
	fmt.Fprintf(w, "%-28s %-20s %-20s\n", "Memory bandwidth",
		fmt.Sprintf("%.0f GB/s", p.CPUBandwidthGBps),
		fmt.Sprintf("%.0f GB/s", p.GPUBandwidthGBps))
	fmt.Fprintf(w, "%-28s %-20s\n", "PCIe", fmt.Sprintf("%.0f GB/s, %.0f µs latency", p.PCIeGBps, p.PCIeLatencySec*1e6))
	fmt.Fprintf(w, "%-28s %-20s\n", "Kernel launch", fmt.Sprintf("%.0f µs", p.KernelLaunchSec*1e6))
	fmt.Fprintf(w, "%-28s %-20s %-20s\n", "BLAS/LAPACK", "internal/blas+lapack", "internal/gpu kernels")
}

// pool builds k simulated devices in the given execution mode.
func pool(params sim.Params, mode gpu.Mode, k int) []*gpu.Device {
	devs := make([]*gpu.Device, k)
	for i := range devs {
		devs[i] = gpu.NewIndexed(params, mode, i)
	}
	return devs
}
