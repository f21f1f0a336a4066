package gpu_test

import (
	"testing"

	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// TestTracedCostOnlyAllocationBudget bounds the allocations of a traced
// cost-only FT run at N=1022 (18331 records). Recording appends to the
// trace and to the op log's dependency arena, which only grow, so the
// count is the untraced run's plus a logarithmic number of growths:
// 148 measured against 116 untraced, pinned with about 20% headroom.
func TestTracedCostOnlyAllocationBudget(t *testing.T) {
	a := matrix.Shape(1022, 1022)
	allocs := testing.AllocsPerRun(3, func() {
		dev := gpu.New(sim.K40c(), gpu.CostOnly)
		dev.EnableTrace()
		if _, err := ft.Reduce(a, ft.Options{NB: 16, Device: dev}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 180 {
		t.Errorf("traced cost-only N=1022: %v allocations per run, budget 180", allocs)
	}
}
