package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/matrix"
)

// costOnlyCases covers every cost-only path of the reduction: both
// algorithms on one device and on a pool, lookahead on and off, the fused
// substrate, fail-stop with a killed device, and fault hooks in Areas 1
// and 3. Options are built per run because fault hooks are stateful.
var costOnlyCases = []struct {
	name string
	opt  func() Options
}{
	{"baseline K=0", func() Options { return Options{Algorithm: Baseline} }},
	{"baseline K=2", func() Options { return Options{Algorithm: Baseline, DeviceCount: 2} }},
	{"baseline K=0 no lookahead", func() Options { return Options{Algorithm: Baseline, DisableLookahead: true} }},
	{"ft K=0", func() Options { return Options{} }},
	{"ft K=2", func() Options { return Options{DeviceCount: 2} }},
	{"ft K=0 no lookahead", func() Options { return Options{DisableLookahead: true} }},
	{"ft K=2 no lookahead", func() Options { return Options{DeviceCount: 2, DisableLookahead: true} }},
	{"ft K=0 fused", func() Options { return Options{Substrate: "fused"} }},
	{"ft K=2 fused", func() Options { return Options{DeviceCount: 2, Substrate: "fused"} }},
	{"ft K=3 fail-stop kill", func() Options {
		return Options{DeviceCount: 3, Hook: fault.NewSchedule(fault.Plan{
			TargetIter: 2, KillPoint: fault.KillUpdate, KillDevice: 1,
		})}
	}},
	{"ft K=0 area1", func() Options {
		return Options{Hook: fault.New(fault.Plan{Area: fault.Area1, TargetIter: 2, Seed: 5})}
	}},
	{"ft K=0 area3", func() Options {
		return Options{Hook: fault.New(fault.Plan{Area: fault.Area3, TargetIter: 2, Seed: 5})}
	}},
	{"ft K=2 area1", func() Options {
		return Options{DeviceCount: 2, Hook: fault.New(fault.Plan{Area: fault.Area1, TargetIter: 2, Seed: 5})}
	}},
	{"ft K=2 area3", func() Options {
		return Options{DeviceCount: 2, Hook: fault.New(fault.Plan{Area: fault.Area3, TargetIter: 2, Seed: 5})}
	}},
}

// TestCostOnlyIsDataFree runs every cost-only path on a storage-less
// input, where any element access panics, and checks it models exactly
// the seconds and GFLOPS of the same run on a zero-filled input.
func TestCostOnlyIsDataFree(t *testing.T) {
	const n = 254
	for _, c := range costOnlyCases {
		t.Run(c.name, func(t *testing.T) {
			run := func(a *matrix.Matrix) *Result {
				opt := c.opt()
				opt.NB, opt.CostOnly = 32, true
				res, err := Reduce(a, opt)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			shape, zero := run(matrix.Shape(n, n)), run(matrix.New(n, n))
			if shape.SimSeconds != zero.SimSeconds || shape.ModelGFLOPS != zero.ModelGFLOPS {
				t.Fatalf("storage-less input models %vs / %v GFLOPS, zero-filled %vs / %v GFLOPS",
					shape.SimSeconds, shape.ModelGFLOPS, zero.SimSeconds, zero.ModelGFLOPS)
			}
			if zero.Packed.Data != nil || zero.Packed.Rows != n || zero.Packed.Cols != n {
				t.Fatalf("cost-only Packed must be shape-only, got %dx%d with %d values",
					zero.Packed.Rows, zero.Packed.Cols, len(zero.Packed.Data))
			}
		})
	}
	t.Run("sym baseline", func(t *testing.T) {
		for _, ftOn := range []bool{false, true} {
			run := func(a *matrix.Matrix) *SymResult {
				res, err := ReduceSym(a, SymOptions{NB: 32, CostOnly: true, FaultTolerant: ftOn})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			shape, zero := run(matrix.Shape(n, n)), run(matrix.New(n, n))
			if shape.SimSeconds != zero.SimSeconds || shape.ModelGFLOPS != zero.ModelGFLOPS {
				t.Fatalf("ft=%v: storage-less input models %vs / %v GFLOPS, zero-filled %vs / %v GFLOPS",
					ftOn, shape.SimSeconds, shape.ModelGFLOPS, zero.SimSeconds, zero.ModelGFLOPS)
			}
		}
	})
}

// TestCostOnlyAllocationBudget bounds the heap traffic of cost-only runs
// by counts, not wall time: dispatching a simulated operation allocates
// nothing, so a whole reduction stays within a small fixed budget.
func TestCostOnlyAllocationBudget(t *testing.T) {
	a := matrix.Shape(1022, 1022)
	for _, alg := range []Algorithm{Baseline, FaultTolerant} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Reduce(a, Options{Algorithm: alg, CostOnly: true}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2000 {
			t.Errorf("%v cost-only N=1022: %v allocations per run, budget 2000", alg, allocs)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Reduce(matrix.Shape(4030, 4030), Options{CostOnly: true}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if total := after.TotalAlloc - before.TotalAlloc; total > 2<<20 {
		t.Errorf("FT cost-only N=4030 allocated %d bytes, budget 2 MiB", total)
	}
}

// TestCostOnlyModelsRealTime checks that the two execution modes model
// one schedule: a clean run models bit-for-bit the same seconds in Real
// mode on a random input as in cost-only mode on a storage-less one. The
// rows cover either algorithm on one device, lookahead on and off, and
// on pools of 1, 2 and 4 devices under both FT substrates. A modeled
// cost decided inside a HostOp or kernel body, which only Real mode
// runs, splits the two; so does a folded launch charged differently in
// the two modes.
func TestCostOnlyModelsRealTime(t *testing.T) {
	type row struct {
		n   int
		opt Options
	}
	var rows []row
	for _, n := range []int{254, 1024} {
		for _, alg := range []Algorithm{FaultTolerant, Baseline} {
			rows = append(rows, row{n, Options{Algorithm: alg}})
		}
	}
	for _, k := range []int{1, 2, 4} {
		rows = append(rows, row{254, Options{Algorithm: Baseline, DeviceCount: k}})
		for _, sub := range []string{"swept", "fused"} {
			rows = append(rows, row{254, Options{DeviceCount: k, Substrate: sub}})
		}
	}
	rows = append(rows, row{512, Options{DeviceCount: 2, Substrate: "fused"}})
	for _, r := range rows {
		for _, noLA := range []bool{false, true} {
			opt := r.opt
			opt.DisableLookahead = noLA
			name := fmt.Sprintf("%v/n=%d", opt.Algorithm, r.n)
			if opt.DeviceCount > 0 {
				name += fmt.Sprintf("/k=%d", opt.DeviceCount)
			}
			if opt.Substrate != "" {
				name += "/" + opt.Substrate
			}
			name += fmt.Sprintf("/no-lookahead=%v", noLA)
			t.Run(name, func(t *testing.T) {
				run := func(a *matrix.Matrix, costOnly bool) float64 {
					o := opt
					o.CostOnly = costOnly
					res, err := Reduce(a, o)
					if err != nil {
						t.Fatal(err)
					}
					return res.SimSeconds
				}
				real, model := run(matrix.Random(r.n, r.n, 11), false), run(matrix.Shape(r.n, r.n), true)
				if real != model {
					t.Fatalf("Real mode models %vs, cost-only %vs", real, model)
				}
			})
		}
	}
}
