package devpool

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// The host combine of the panel-GEMV partials runs once per panel column;
// the shard's scratch holds its slab → staging-column map, so a combine
// allocates nothing.
func TestPanelGemvCollectAllocationFree(t *testing.T) {
	const n, nb = 128, 16
	pool := New(2, sim.K40c(), gpu.Real)
	sh := NewShard(pool, n, nb, 0)
	defer sh.Free()
	a := matrix.Random(n, n, 3)
	sh.Upload(a)
	sh.PanelGemvIssue(a, 0, 0, 1, nb, false)
	y := matrix.New(n, nb)
	if allocs := testing.AllocsPerRun(20, func() { sh.PanelGemvCollect(y, 0, 1) }); allocs != 0 {
		t.Fatalf("PanelGemvCollect: %.1f allocations per call, want 0", allocs)
	}
}

// One launch per device per round: on an 8-slab shard each operation
// family launches a bounded number of kernels per device at K=1 (8 slabs
// on the device) and K=2 (4 each), with and without the checksum halo and
// the lookahead schedule. The budgets are the same with and without the
// halo, whose checksum rows ride the data launches: the panel GEMV is one
// segmented launch per column (the lookahead correction folds into it);
// Y-top is one split-K GEMM; the lookahead priority update is one
// GEMM/GEMM/TRMM/GEMM chain; the right update is the operand gather, the
// panel slab's top-rows GEMM and one GEMM; the left update is GEMM, TRMM
// and GEMM.
func TestPoolLaunchesPerRound(t *testing.T) {
	// The panel sits at the end of slab 1 and the next one starts slab 2,
	// so the priority update runs on a non-panel slab (halo row included).
	const n, nb, p, k = 512, 32, 96, 97
	for _, la := range []bool{false, true} {
		for _, pad := range []int{0, 1} {
			for _, kdev := range []int{1, 2} {
				pool := New(kdev, sim.K40c(), gpu.CostOnly)
				sh := NewShard(pool, n, nb, pad)
				if len(sh.Part.Slabs) != 8 {
					t.Fatalf("N=%d nb=%d: %d slabs, want 8", n, nb, len(sh.Part.Slabs))
				}
				if sh.Part.SlabOf(p) == sh.Part.SlabOf(p+nb) {
					t.Fatalf("panel %d and next panel %d share slab %d", p, p+nb, sh.Part.SlabOf(p))
				}
				a := matrix.Shape(n, n)
				y := matrix.Shape(n+pad, nb)
				tm := matrix.Shape(nb, nb)
				sh.Upload(a)
				sh.PanelD2H(a, p, k, nb)
				rounds := []struct {
					op  string
					max int64
					run func()
				}{
					{"panel GEMV column", 1, func() {
						sh.PanelGemvIssue(a, 0, p, k, nb, la)
						sh.PanelGemvCollect(y, 0, k)
					}},
					{"Y-top", 1, func() {
						sh.Broadcast(a, tm, p, k, nb)
						sh.YTop(y, tm, p, k, nb)
						sh.BroadcastY(y, nb)
					}},
					{"priority update", 4, func() {
						if la {
							sh.PriorityUpdate(p, k, nb, nb)
						}
					}},
					{"right update", 3, func() { sh.RightUpdate(p, k, nb) }},
					{"left update", 3, func() { sh.LeftUpdate(p, k, nb) }},
				}
				for _, r := range rounds {
					before := make([]int64, kdev)
					for d, dev := range pool.Devices {
						before[d] = dev.KernelCount()
					}
					r.run()
					for d, dev := range pool.Devices {
						if c := dev.KernelCount() - before[d]; c > r.max {
							t.Errorf("la=%v pad=%d K=%d device %d owns %d slabs: %s launched %d kernels, budget %d",
								la, pad, kdev, d, len(sh.DevSlabs[d]), r.op, c, r.max)
						}
					}
				}
				sh.Free()
			}
		}
	}
}
