package gpu

import (
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// The fused-ABFT substrate switch: Real-mode kernels must verify their
// own output (checks accumulate, results stay bitwise identical to the
// plain kernels), the cost model must charge the premium in both modes,
// and CostOnly runs must never touch the counters.

func TestSubstrateFusedGemmBitwiseAndCounted(t *testing.T) {
	const m, n, k = 96, 80, 64
	a := matrix.Random(m, k, 11)
	b := matrix.Random(k, n, 12)
	c0 := matrix.Random(m, n, 13)

	run := func(fused bool) (*matrix.Matrix, *Device) {
		d := New(sim.K40c(), Real)
		if d.fusedFT {
			t.Fatal("substrate defaulted to fused")
		}
		d.SetSubstrateFused(fused)
		da := d.Alloc(m, k)
		db := d.Alloc(k, n)
		dc := d.Alloc(m, n)
		d.H2D(da, 0, 0, a)
		d.H2D(db, 0, 0, b)
		d.H2D(dc, 0, 0, c0)
		d.Gemm(blas.NoTrans, blas.NoTrans, m, n, k, 1.2, da, 0, 0, db, 0, 0, 0.5, dc, 0, 0)
		out := matrix.New(m, n)
		d.D2H(out, dc, 0, 0)
		return out, d
	}

	plain, dPlain := run(false)
	fused, dFused := run(true)
	if !plain.Equal(fused) {
		t.Fatal("fused-substrate Gemm differs bitwise from plain")
	}
	checks, detections, nonFinite := dFused.FTStats()
	if checks == 0 {
		t.Fatal("fused Gemm accumulated zero checks")
	}
	if detections != 0 || nonFinite {
		t.Fatalf("clean fused Gemm reported detections=%d nonFinite=%v", detections, nonFinite)
	}
	if c, _, _ := dPlain.FTStats(); c != 0 {
		t.Fatalf("plain device accumulated %d checks", c)
	}
	// The premium must show up in the modeled gemm busy time.
	if dFused.TimeBreakdown()["gemm"] <= dPlain.TimeBreakdown()["gemm"] {
		t.Fatal("fused Gemm charged no cost premium")
	}
}

func TestSubstrateFusedGemvDMRCounted(t *testing.T) {
	const m, n = 64, 48
	a := matrix.Random(m, n, 21)
	x := matrix.Random(n, 1, 22)
	y := matrix.Random(m, 1, 23)

	d := New(sim.K40c(), Real)
	d.SetSubstrateFused(true)
	da := d.Alloc(m, n)
	dx := d.Alloc(n, 1)
	dy := d.Alloc(m, 1)
	d.H2D(da, 0, 0, a)
	d.H2D(dx, 0, 0, x)
	d.H2D(dy, 0, 0, y)
	d.Gemv(blas.NoTrans, m, n, 1.0, da, 0, 0, dx, 0, 0, 0.3, dy, 0, 0)
	checks, detections, _ := d.FTStats()
	if checks != m {
		t.Fatalf("DMR Gemv checks = %d, want one per output element (%d)", checks, m)
	}
	if detections != 0 {
		t.Fatalf("clean DMR Gemv reported %d detections", detections)
	}
	d.ResetFTStats()
	if c, _, _ := d.FTStats(); c != 0 {
		t.Fatal("ResetFTStats did not clear counters")
	}
}

func TestSubstrateFusedCostOnlyChargesButNeverChecks(t *testing.T) {
	const m, n, k = 256, 256, 256
	plain := New(sim.K40c(), CostOnly)
	fused := New(sim.K40c(), CostOnly)
	fused.SetSubstrateFused(true)
	for _, d := range []*Device{plain, fused} {
		da := d.Alloc(m, k)
		db := d.Alloc(k, n)
		dc := d.Alloc(m, n)
		d.Gemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, da, 0, 0, db, 0, 0, 1, dc, 0, 0)
		d.Gemv(blas.NoTrans, m, n, 1, da, 0, 0, db, 0, 0, 0, dc, 0, 0)
	}
	if c, _, _ := fused.FTStats(); c != 0 {
		t.Fatalf("CostOnly fused device accumulated %d checks", c)
	}
	wantGemm := sim.K40c().GemmDevice(m, n, k) * (1 + blas.FTGemmOverheadFrac(m, n, k))
	if got := fused.TimeBreakdown()["gemm"]; got <= plain.TimeBreakdown()["gemm"] || got != wantGemm {
		t.Fatalf("CostOnly fused gemm cost %v, want %v (> plain %v)", got, wantGemm, plain.TimeBreakdown()["gemm"])
	}
	if fused.TimeBreakdown()["gemv"] <= plain.TimeBreakdown()["gemv"] {
		t.Fatal("CostOnly fused gemv charged no DMR premium")
	}
}
