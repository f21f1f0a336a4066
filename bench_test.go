package repro

// Benchmarks regenerating the paper's evaluation, one per table/figure
// (see DESIGN.md §4 for the experiment index), plus the ablations of
// DESIGN.md §5 and raw kernel benchmarks for the substrates.
//
// Cost-only benchmarks sweep the analytic device model (Figure 6 runs at
// the paper's sizes); real benchmarks execute full arithmetic at
// laptop-scale sizes.

import (
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/blas"
	"repro/internal/fault"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// BenchmarkTableI_Calibration renders the simulated platform spec.
func BenchmarkTableI_Calibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.TableI(io.Discard, sim.K40c())
	}
}

// BenchmarkFig2_Propagation runs the three injection cases of Figure 2
// (N=158, nb=32, real arithmetic).
func BenchmarkFig2_Propagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig2(io.Discard, 158)
	}
}

// BenchmarkFig6 panels sweep the paper's size grid in cost-only mode.
func benchFig6(b *testing.B, sizes []int) {
	for i := 0; i < b.N; i++ {
		bench.Fig6(io.Discard, sizes, 32, sim.K40c())
	}
}

func BenchmarkFig6_SmallGrid(b *testing.B) { benchFig6(b, []int{1022, 2046, 3070, 4030}) }
func BenchmarkFig6_PaperGrid(b *testing.B) { benchFig6(b, bench.PaperSizes) }

// BenchmarkTableII_III_Stability runs the residual/orthogonality grid
// (Tables II and III share their runs) at a laptop-scale size.
func BenchmarkTableII_III_Stability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Tables23(io.Discard, []int{126}, 32)
	}
}

// --- Ablations (DESIGN.md §5) ---

func BenchmarkAblation_Overlap(b *testing.B) {
	a := matrix.Shape(4030, 4030)
	for i := 0; i < b.N; i++ {
		if _, err := hybrid.Reduce(a, hybrid.Options{NB: 32, Device: gpu.New(sim.K40c(), gpu.CostOnly)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_NoOverlap(b *testing.B) {
	a := matrix.Shape(4030, 4030)
	for i := 0; i < b.N; i++ {
		if _, err := hybrid.Reduce(a, hybrid.Options{NB: 32, Device: gpu.New(sim.K40c(), gpu.CostOnly), DisableOverlap: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_QChecksumOn(b *testing.B) {
	a := matrix.Shape(4030, 4030)
	for i := 0; i < b.N; i++ {
		if _, err := ft.Reduce(a, ft.Options{NB: 32, Device: gpu.New(sim.K40c(), gpu.CostOnly)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_QChecksumOff(b *testing.B) {
	a := matrix.Shape(4030, 4030)
	for i := 0; i < b.N; i++ {
		if _, err := ft.Reduce(a, ft.Options{NB: 32, Device: gpu.New(sim.K40c(), gpu.CostOnly), DisableQProtection: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_DetectionCadence(b *testing.B) {
	a := matrix.Shape(2046, 2046)
	iters := fault.BlockedIterations(2046, 32)
	for i := 0; i < b.N; i++ {
		in := fault.New(fault.Plan{Area: fault.Area2, TargetIter: iters / 2, Seed: 1})
		if _, err := ft.Reduce(a, ft.Options{NB: 32, Device: gpu.New(sim.K40c(), gpu.CostOnly), Hook: in}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_BlockSize(b *testing.B) {
	a := matrix.Shape(2046, 2046)
	for _, nb := range []int{16, 32, 64} {
		b.Run(bName("nb", nb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ft.Reduce(a, ft.Options{NB: nb, Device: gpu.New(sim.K40c(), gpu.CostOnly)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate kernels (real arithmetic) ---

func BenchmarkDgemm256(b *testing.B) {
	n := 256
	x := matrix.Random(n, n, 1)
	y := matrix.Random(n, n, 2)
	c := matrix.New(n, n)
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, x.Data, x.Stride, y.Data, y.Stride, 0, c.Data, c.Stride)
	}
}

func BenchmarkDgehrdCPU256(b *testing.B) {
	n := 256
	a := matrix.Random(n, n, 1)
	tau := make([]float64, n-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := a.Clone()
		lapack.Dgehrd(n, 32, w.Data, w.Stride, tau)
	}
}

func BenchmarkHybridReduce256(b *testing.B) {
	a := matrix.Random(256, 256, 1)
	for i := 0; i < b.N; i++ {
		if _, err := hybrid.Reduce(a, hybrid.Options{NB: 32, Device: gpu.New(sim.K40c(), gpu.Real)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFTReduce256(b *testing.B) {
	a := matrix.Random(256, 256, 1)
	for i := 0; i < b.N; i++ {
		if _, err := ft.Reduce(a, ft.Options{NB: 32, Device: gpu.New(sim.K40c(), gpu.Real)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFTReduce256_OneFault(b *testing.B) {
	a := matrix.Random(256, 256, 1)
	for i := 0; i < b.N; i++ {
		in := fault.New(fault.Plan{Area: fault.Area2, TargetIter: 2, Seed: uint64(i)})
		res, err := ft.Reduce(a, ft.Options{NB: 32, Device: gpu.New(sim.K40c(), gpu.Real), Hook: in})
		if err != nil {
			b.Fatal(err)
		}
		if res.Recoveries == 0 {
			b.Fatal("no recovery")
		}
	}
}

func BenchmarkEigenvalues128(b *testing.B) {
	a := matrix.RandomNormal(128, 128, 1)
	for i := 0; i < b.N; i++ {
		if _, err := lapack.Eigenvalues(a, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func bName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- Extensions beyond the paper (future work & evaluation tooling) ---

func BenchmarkHybridSytrd128(b *testing.B) {
	a := matrix.RandomSymmetric(128, 1)
	for i := 0; i < b.N; i++ {
		if _, err := hybrid.ReduceSym(a, hybrid.Options{NB: 32, Device: gpu.New(sim.K40c(), gpu.Real)}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFTSytrd128(b *testing.B) {
	a := matrix.RandomSymmetric(128, 1)
	for i := 0; i < b.N; i++ {
		if _, err := ft.ReduceSym(a, ft.SymOptions{NB: 32}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDsterf512(b *testing.B) {
	n := 512
	for i := 0; i < b.N; i++ {
		d := make([]float64, n)
		e := make([]float64, n-1)
		for j := range d {
			d[j] = 2
		}
		for j := range e {
			e[j] = -1
		}
		if err := lapack.Dsterf(n, d, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigen64(b *testing.B) {
	a := matrix.RandomSymmetric(64, 3)
	for i := 0; i < b.N; i++ {
		if _, err := lapack.Eigen(a, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchObsJSON byte-compares BENCH_obs.json, the cost-only
// baseline-vs-FT comparison with the FT run's per-phase busy time, against
// a fresh run of the obs study. Every FT run reports its phases and costs
// more than the baseline, and the overhead falls as N grows (the paper's
// headline trend).
func TestBenchObsJSON(t *testing.T) {
	s, ok := bench.Lookup("obs")
	if !ok {
		t.Fatal("no obs study")
	}
	art, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	rows := art.(bench.ObsArtifact)
	for i, r := range rows {
		if len(r.FTPhaseSeconds) == 0 || r.OverheadPct <= 0 {
			t.Errorf("N=%d: %d phases, overhead %.2f%%", r.N, len(r.FTPhaseSeconds), r.OverheadPct)
		}
		if i > 0 && r.OverheadPct >= rows[i-1].OverheadPct {
			t.Errorf("overhead not falling with N: %.2f%% at N=%d, %.2f%% at N=%d",
				rows[i-1].OverheadPct, rows[i-1].N, r.OverheadPct, r.N)
		}
	}
	if err := s.Diff(".", art); err != nil {
		t.Error(err)
	}
}

func BenchmarkPostProcessComparator(b *testing.B) {
	a := matrix.Shape(2046, 2046)
	for i := 0; i < b.N; i++ {
		if _, err := ft.Reduce(a, ft.Options{NB: 32, Device: gpu.New(sim.K40c(), gpu.CostOnly), PostProcess: true}); err != nil {
			b.Fatal(err)
		}
	}
}
