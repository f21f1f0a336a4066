package blas

import "math"

// FTSelfTestResult reports the power-on self-test of the FT substrate:
// for each detector, whether its planted fault was caught, plus the
// check counts the faulted calls performed. Healthy hardware (and a
// healthy build) answers true on every field.
type FTSelfTestResult struct {
	// GemmPacked: a bit flipped in the packed operand panels between the
	// pack and the micro-kernel was detected by the fused checksum verify.
	GemmPacked bool `json:"gemm_packed"`
	// GemmTile: an exponent bit flipped in the finished C tile before the
	// epilogue verify was detected.
	GemmTile bool `json:"gemm_tile"`
	// Gemv / Ger: a one-ulp corruption of the primary Level-2 output,
	// planted after both DMR copies are computed, was detected by the
	// bit compare.
	Gemv bool `json:"gemv"`
	Ger  bool `json:"ger"`
	// GemmChecks is the row+column comparisons one faulted DgemmFT ran;
	// DMRChecks the element compares across the faulted DgemvFT + DgerFT.
	GemmChecks int `json:"gemm_checks"`
	DMRChecks  int `json:"dmr_checks"`
}

// Passed reports whether every planted fault was detected.
func (r FTSelfTestResult) Passed() bool {
	return r.GemmPacked && r.GemmTile && r.Gemv && r.Ger
}

// FTSelfTest exercises every fused detector end-to-end against planted
// faults: a mantissa flip in the packed GEMM panels, an exponent flip in
// the accumulated C tile, and a one-ulp corruption of each DMR'd Level-2
// primary output. It is the substrate's power-on self-test — run it at
// startup or bench time to prove the detectors are alive, not just
// compiled in; BENCH_blasft.json records the outcome.
//
// The fault-planting hooks are process-global and unsynchronised, so
// FTSelfTest must not run concurrently with other FT BLAS calls.
func FTSelfTest() FTSelfTestResult {
	const n = 96 // one serial macro-tile: the hooks are not synchronised
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	seed := uint64(0x9e3779b97f4a7c15)
	fill := func(s []float64) {
		for i := range s {
			seed = seed*6364136223846793005 + 1442695040888963407
			s[i] = float64(int64(seed>>33))/float64(1<<30) - 1
		}
	}
	fill(a)
	fill(b)
	fill(c)

	var res FTSelfTestResult

	ftTestCorruptPacked = func(bufA, bufB []float64) {
		bufA[7] = math.Float64frombits(math.Float64bits(bufA[7]) ^ (1 << 30))
	}
	rep, err := DgemmFT(NoTrans, NoTrans, n, n, n, 1, a, n, b, n, 1, c, n)
	ftTestCorruptPacked = nil
	res.GemmPacked = err != nil && rep.Detections > 0
	res.GemmChecks = rep.Checks

	ftTestCorruptTile = func(ct []float64, ldc, mc, nc int) {
		ct[3*ldc+5] = math.Float64frombits(math.Float64bits(ct[3*ldc+5]) ^ (1 << 55))
	}
	rep, err = DgemmFT(NoTrans, NoTrans, n, n, n, 1, a, n, b, n, 1, c, n)
	ftTestCorruptTile = nil
	res.GemmTile = err != nil && rep.Detections > 0

	ftTestCorruptDMR = func(out []float64, inc int) {
		out[2*inc] = math.Float64frombits(math.Float64bits(out[2*inc]) ^ 1)
	}
	x := make([]float64, n)
	y := make([]float64, n)
	fill(x)
	fill(y)
	rep, err = DgemvFT(NoTrans, n, n, 1, a, n, x, 1, 0, y, 1)
	res.Gemv = err != nil && rep.Detections > 0
	res.DMRChecks = rep.Checks
	rep, err = DgerFT(n, n, 1, x, 1, y, 1, a, n)
	ftTestCorruptDMR = nil
	res.Ger = err != nil && rep.Detections > 0
	res.DMRChecks += rep.Checks

	return res
}
