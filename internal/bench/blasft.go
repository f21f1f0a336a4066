package bench

import (
	"fmt"
	"io"

	"repro/internal/blas"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The fused-ABFT substrate study behind BENCH_blasft.json, in three parts:
//
//  1. Wall-clock overhead of DgemmFT over Dgemm on the host substrate, per
//     GEMM shape, from paired alternating-order calls (the bar is ≤8% at
//     512³ — every checksum pass rides a pass the data path makes anyway,
//     so the overhead is a few percent), and of the DMR
//     DgemvFT over Dgemv at the panel's Level-2 shapes (the bar is ≤1.6×
//     at 512×64, the pool's slab shape: the one-pass kernel reads A once).
//  2. The substrate's power-on self-test: planted faults in the packed
//     panels, the C tile, and the DMR'd Level-2 outputs must all be
//     detected (blas.FTSelfTest).
//  3. What the substrate buys the reduction: with Options.Substrate =
//     "fused", the multi-device FT schedule refreshes the panel slab's
//     checksum halo incrementally instead of re-encoding it, so the
//     modeled checksum_maintenance phase shrinks.

// BlasFTGemmCell is one GEMM shape of the overhead study.
type BlasFTGemmCell struct {
	M    int     `json:"m"`
	N    int     `json:"n"`
	K    int     `json:"k"`
	Beta float64 `json:"beta"`
	// PlainSec / FusedSec are the wall seconds of one Dgemm / DgemmFT call.
	PlainSec Spread `json:"plain_sec"`
	FusedSec Spread `json:"fused_sec"`
	// OverheadPct is 100·(fused/plain − 1), pair by pair; ModelOverheadPct
	// is the extra-flop model the simulated device charges
	// (FTGemmOverheadFrac).
	OverheadPct      Spread  `json:"overhead_pct"`
	ModelOverheadPct float64 `json:"model_overhead_pct"`
	// Checks is the row+column checksum comparisons one fused call runs.
	Checks int `json:"checks"`
	// FusedGFLOPS is the fused call's rate at its median time, for scale.
	FusedGFLOPS float64 `json:"fused_gflops"`
}

// BlasFTGemvCell is one NoTrans Level-2 shape of the overhead study.
type BlasFTGemvCell struct {
	M int `json:"m"`
	N int `json:"n"`
	// PlainSec / FusedSec are the wall seconds of one Dgemv / DgemvFT call.
	PlainSec Spread `json:"plain_sec"`
	FusedSec Spread `json:"fused_sec"`
	// Ratio is fused/plain, pair by pair.
	Ratio Spread `json:"ratio"`
	// Checks is the element compares one DMR call runs.
	Checks int `json:"checks"`
}

// BlasFTMaintenance compares the modeled checksum_maintenance phase of the
// multi-device FT reduction across substrates at one (N, NB, K) point.
type BlasFTMaintenance struct {
	N       int `json:"n"`
	NB      int `json:"nb"`
	Devices int `json:"devices"`
	// SweptSec / FusedSec are the modeled checksum_maintenance busy
	// seconds with the sweeps-only and fused substrates.
	SweptSec float64 `json:"swept_sec"`
	FusedSec float64 `json:"fused_sec"`
	// DropPct is 100·(1 − FusedSec/SweptSec).
	DropPct float64 `json:"drop_pct"`
}

// BlasFTRealRun records a small real-execution fused reduction proving
// the end-to-end wiring: every device BLAS call verified in-kernel, zero
// detections on a clean run.
type BlasFTRealRun struct {
	N       int `json:"n"`
	NB      int `json:"nb"`
	Devices int `json:"devices"`
	// SubstrateChecks / SubstrateDetections as the run reported them.
	SubstrateChecks     int `json:"substrate_checks"`
	SubstrateDetections int `json:"substrate_detections"`
}

// BlasFTArtifact is the committed BENCH_blasft.json.
type BlasFTArtifact struct {
	Provenance Provenance       `json:"provenance"`
	Pairs      int              `json:"pairs"`
	Gemm       []BlasFTGemmCell `json:"gemm"`
	Gemv       []BlasFTGemvCell `json:"gemv"`
	// SelfTest is the planted-fault detection record; Passed must be true.
	SelfTest    blas.FTSelfTestResult `json:"self_test"`
	Maintenance BlasFTMaintenance     `json:"maintenance"`
	RealRun     BlasFTRealRun         `json:"real_run"`
}

// BlasFTGemmShape is one GEMM of the overhead study: C := A·B + Beta·C
// with A M×K and B K×N.
type BlasFTGemmShape struct {
	M, N, K int
	Beta    float64
}

// BlasFTShapes is the GEMM shape grid: the acceptance point (512³), the
// two shapes the reduction actually leans on (rank-nb trailing update,
// tall-skinny panel product), and the pool's hot right update in the
// ft-faults-pool benchmark: N+1 rows (the checksum row) by the K=2 slab
// storage width with halos at N=512, nb=32, accumulating into C (beta 1)
// as the update does.
var BlasFTShapes = []BlasFTGemmShape{
	{512, 512, 512, 0},
	{1024, 1024, 32, 0},
	{2048, 32, 512, 0},
	{513, 260, 32, 1},
}

// BlasFTGemvShapes is the Level-2 m×n grid: the pool's panel slab in the
// ft-faults-pool benchmark (N=512, nb=32, two devices) and the hot shape
// of BenchmarkDgemvFT.
var BlasFTGemvShapes = [][2]int{
	{512, 64},
	{512, 256},
}

// BlasFT runs the substrate study: the paired wall overhead per GEMM and
// GEMV shape, the planted-fault self-test, and the modeled
// checksum_maintenance comparison at (N=512, NB=16, K=2).
func BlasFT(shapes []BlasFTGemmShape, gemvShapes [][2]int, pairs int, params sim.Params) (*BlasFTArtifact, error) {
	art := &BlasFTArtifact{Provenance: stamp(), Pairs: pairs}
	for _, s := range shapes {
		m, n, k, beta := s.M, s.N, s.K, s.Beta
		a := matrix.Random(m, k, 1)
		b := matrix.Random(k, n, 2)
		c := matrix.New(m, n)
		cell := BlasFTGemmCell{M: m, N: n, K: k, Beta: beta, ModelOverheadPct: 100 * blas.FTGemmOverheadFrac(m, n, k)}
		plain := timed(func() error {
			blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
			return nil
		})
		fused := timed(func() error {
			rep, err := blas.DgemmFT(blas.NoTrans, blas.NoTrans, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
			if err != nil {
				return fmt.Errorf("DgemmFT %dx%dx%d: spurious detection: %w (max residual %.3g)", m, n, k, err, rep.MaxResidual)
			}
			cell.Checks = rep.Checks
			return nil
		})
		p, err := paired(pairs, plain, fused)
		if err != nil {
			return nil, err
		}
		cell.PlainSec, cell.FusedSec, cell.OverheadPct = p.A, p.B, p.Ratio.pct()
		cell.FusedGFLOPS = 2 * float64(m) * float64(n) * float64(k) / p.B.Median / 1e9
		art.Gemm = append(art.Gemm, cell)
	}

	for _, s := range gemvShapes {
		m, n := s[0], s[1]
		a := matrix.Random(m, n, 1)
		x := matrix.Random(n, 1, 2)
		y := make([]float64, m)
		cell := BlasFTGemvCell{M: m, N: n}
		plain := timed(func() error {
			blas.Dgemv(blas.NoTrans, m, n, 1, a.Data, a.Stride, x.Data, 1, 0, y, 1)
			return nil
		})
		fused := timed(func() error {
			rep, err := blas.DgemvFT(blas.NoTrans, m, n, 1, a.Data, a.Stride, x.Data, 1, 0, y, 1)
			if err != nil {
				return fmt.Errorf("DgemvFT %dx%d: spurious detection: %w", m, n, err)
			}
			cell.Checks = rep.Checks
			return nil
		})
		p, err := paired(pairs, plain, fused)
		if err != nil {
			return nil, err
		}
		cell.PlainSec, cell.FusedSec, cell.Ratio = p.A, p.B, p.Ratio
		art.Gemv = append(art.Gemv, cell)
	}

	art.SelfTest = blas.FTSelfTest()

	mnt := BlasFTMaintenance{N: 512, NB: 16, Devices: 2}
	for _, sub := range []string{ft.SubstrateSwept, ft.SubstrateFused} {
		reg := obs.NewRegistry()
		opts := ft.Options{NB: mnt.NB, Devices: pool(params, gpu.CostOnly, mnt.Devices), Substrate: sub, Obs: reg}
		if _, err := ft.Reduce(matrix.Shape(mnt.N, mnt.N), opts); err != nil {
			return nil, fmt.Errorf("ft N=%d K=%d substrate=%s: %w", mnt.N, mnt.Devices, sub, err)
		}
		sec := obs.SumBy(reg, "phase_seconds", "phase")["checksum_maintenance"]
		if sub == ft.SubstrateFused {
			mnt.FusedSec = sec
		} else {
			mnt.SweptSec = sec
		}
	}
	if mnt.SweptSec > 0 {
		mnt.DropPct = 100 * (1 - mnt.FusedSec/mnt.SweptSec)
	}
	art.Maintenance = mnt

	// Cost-only devices never execute kernels, so the check counters above
	// stay zero; a small real-execution run records the live wiring.
	rr := BlasFTRealRun{N: 192, NB: 16, Devices: 2}
	opts := ft.Options{NB: rr.NB, Devices: pool(params, gpu.Real, rr.Devices), Substrate: ft.SubstrateFused}
	res, err := ft.Reduce(matrix.Random(rr.N, rr.N, 3), opts)
	if err != nil {
		return nil, fmt.Errorf("real fused run N=%d K=%d: %w", rr.N, rr.Devices, err)
	}
	rr.SubstrateChecks, rr.SubstrateDetections = res.SubstrateChecks, res.SubstrateDetections
	art.RealRun = rr
	return art, nil
}

// Report prints the study as a table.
func (art *BlasFTArtifact) Report(w io.Writer) {
	fmt.Fprintf(w, "Fused-ABFT BLAS substrate study (GOMAXPROCS=%d, median [Q1, Q3] of %d alternating pairs)\n",
		art.Provenance.GOMAXPROCS, art.Pairs)
	fmt.Fprintf(w, "%-20s %10s %10s %26s %8s %8s %9s\n",
		"gemm m×n×k, beta", "plain", "fused", "overhead", "model", "checks", "GFLOP/s")
	for _, c := range art.Gemm {
		fmt.Fprintf(w, "%-20s %8.3fms %8.3fms %7.2f%% [%+6.2f, %+6.2f]%% %7.2f%% %8d %9.1f\n",
			fmt.Sprintf("%dx%dx%d, %g", c.M, c.N, c.K, c.Beta),
			1e3*c.PlainSec.Median, 1e3*c.FusedSec.Median,
			c.OverheadPct.Median, c.OverheadPct.Q1, c.OverheadPct.Q3, c.ModelOverheadPct,
			c.Checks, c.FusedGFLOPS)
	}
	fmt.Fprintf(w, "%-20s %10s %10s %26s %8s\n", "gemv m×n", "plain", "DMR", "ratio", "checks")
	for _, c := range art.Gemv {
		fmt.Fprintf(w, "%-20s %8.2fus %8.2fus %7.3fx [%6.3f, %6.3f]   %8d\n",
			fmt.Sprintf("%dx%d", c.M, c.N), 1e6*c.PlainSec.Median, 1e6*c.FusedSec.Median,
			c.Ratio.Median, c.Ratio.Q1, c.Ratio.Q3, c.Checks)
	}
	st := art.SelfTest
	fmt.Fprintf(w, "self-test: packed=%v tile=%v gemv=%v ger=%v (%d gemm checks, %d DMR checks) — passed=%v\n",
		st.GemmPacked, st.GemmTile, st.Gemv, st.Ger, st.GemmChecks, st.DMRChecks, st.Passed())
	m := art.Maintenance
	fmt.Fprintf(w, "checksum_maintenance, FT N=%d nb=%d K=%d (modeled): swept %.4fms, fused %.4fms — %.1f%% drop\n",
		m.N, m.NB, m.Devices, 1e3*m.SweptSec, 1e3*m.FusedSec, m.DropPct)
	rr := art.RealRun
	fmt.Fprintf(w, "real fused run, FT N=%d nb=%d K=%d: %d in-kernel checks, %d detections\n",
		rr.N, rr.NB, rr.Devices, rr.SubstrateChecks, rr.SubstrateDetections)
}

// WallCheck enforces the wall bars on the paired medians: the fused 512³
// Dgemm's overhead over plain is ≤8%, and DgemvFT at 512×64 costs ≤1.6×
// Dgemv.
func (art *BlasFTArtifact) WallCheck() error {
	for _, c := range art.Gemm {
		if c.M == 512 && c.N == 512 && c.K == 512 && c.OverheadPct.Median > 8 {
			return fmt.Errorf("fused 512³ wall overhead %.2f%% above the 8%% bar", c.OverheadPct.Median)
		}
	}
	for _, c := range art.Gemv {
		if c.M == 512 && c.N == 64 && c.Ratio.Median > 1.6 {
			return fmt.Errorf("DgemvFT 512×64 at %.3f× Dgemv, above the 1.6× bar", c.Ratio.Median)
		}
	}
	return nil
}
