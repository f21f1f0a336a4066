package blas

import (
	"math"
	"sync"
)

// Dual modular redundancy for the memory-bound Level-2 ops that dominate
// the panel factorization (FT-BLAS style). Checksum encoding cannot pay
// for itself on O(mn)-flop kernels — the encode is the same order as the
// op — and a rank-1 or matrix-vector product perturbs too few outputs for
// a column-sum sweep to localise cheaply. So DgemvFT/DgerFT instead run
// the public routine twice — once into the caller's output, once into a
// private contiguous shadow — and compare bit-for-bit.
//
// The compare is exact, not thresholded: the parallel shards and the
// incY != 1 paths keep per-element operation order identical to serial
// contiguous execution (the package-wide determinism contract), so the
// two runs agree in every bit unless a transient fault struck one of
// them. That catches even single-ulp mantissa flips that sit far below
// any norm-based threshold. Any two NaNs compare equal, so non-finite
// *inputs* are not misreported as faults. A NaN's payload is outside the
// contract: x86 propagates the first operand's payload and the compiler
// picks the operand order per loop, so a strided primary and the
// contiguous shadow may carry different payloads for the same NaN. A bit
// gap involving a non-finite value sets FTResult.NonFinite.

// ftTestCorruptDMR, when non-nil, is called between the primary and
// shadow runs with the primary output (test hook: plants the fault the
// second run cannot see).
var ftTestCorruptDMR func(out []float64, inc int)

// dmrPool recycles shadow buffers so steady-state DMR calls do not
// allocate. Buffers grow to the largest size ever requested.
var dmrPool = sync.Pool{New: func() any {
	s := make([]float64, 0, 4096)
	return &s
}}

func dmrBuf(n int) *[]float64 {
	bp := dmrPool.Get().(*[]float64)
	if cap(*bp) < n {
		*bp = make([]float64, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// dmrCompare bit-compares the primary output (stride inc) against the
// contiguous shadow, filling rep. Each element is one check.
func dmrCompare(rep *FTResult, out []float64, inc int, shadow []float64) {
	for i, iy := 0, 0; i < len(shadow); i, iy = i+1, iy+inc {
		rep.Checks++
		p, s := out[iy], shadow[i]
		if math.Float64bits(p) == math.Float64bits(s) || (math.IsNaN(p) && math.IsNaN(s)) {
			continue
		}
		rep.Detections++
		if math.IsNaN(p) || math.IsInf(p, 0) || math.IsNaN(s) || math.IsInf(s, 0) {
			rep.NonFinite = true
			rep.MaxResidual = math.Inf(1)
			continue
		}
		if d := math.Abs(p - s); d > rep.MaxResidual {
			rep.MaxResidual = d
		}
	}
}

// DgemvFT computes y := alpha*op(A)*x + beta*y exactly like Dgemv and
// verifies the result by dual modular redundancy. y holds the primary
// result either way; on any bit mismatch it returns ErrFTDetected.
func DgemvFT(trans Transpose, m, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) (FTResult, error) {
	// Validate before the shadow copy reads y, so a malformed call panics
	// exactly as Dgemv would.
	lenY := checkGemv(trans, m, n, a, lda, x, incX, y, incY)
	var rep FTResult
	if m == 0 || n == 0 {
		Dgemv(trans, m, n, alpha, a, lda, x, incX, beta, y, incY)
		return rep, nil
	}
	if done := opTimer("gemv_ft", 0); done != nil {
		defer done()
	}
	bp := dmrBuf(lenY)
	shadow := *bp
	for i, iy := 0, 0; i < lenY; i, iy = i+1, iy+incY {
		shadow[i] = y[iy]
	}
	Dgemv(trans, m, n, alpha, a, lda, x, incX, beta, y, incY)
	if ftTestCorruptDMR != nil {
		ftTestCorruptDMR(y, incY)
	}
	Dgemv(trans, m, n, alpha, a, lda, x, incX, beta, shadow, 1)
	dmrCompare(&rep, y, incY, shadow)
	dmrPool.Put(bp)
	if rep.Detections > 0 {
		return rep, ErrFTDetected
	}
	return rep, nil
}

// DgerFT computes A := alpha*x*yᵀ + A exactly like Dger and verifies the
// m×n result block by dual modular redundancy.
func DgerFT(m, n int, alpha float64, x []float64, incX int, y []float64, incY int, a []float64, lda int) (FTResult, error) {
	checkGer(m, n, x, incX, y, incY, a, lda)
	var rep FTResult
	if m == 0 || n == 0 || alpha == 0 {
		Dger(m, n, alpha, x, incX, y, incY, a, lda)
		return rep, nil
	}
	if done := opTimer("ger_ft", 0); done != nil {
		defer done()
	}
	bp := dmrBuf(m * n)
	shadow := *bp
	for j := 0; j < n; j++ {
		copy(shadow[j*m:j*m+m], a[j*lda:j*lda+m])
	}
	Dger(m, n, alpha, x, incX, y, incY, a, lda)
	if ftTestCorruptDMR != nil {
		ftTestCorruptDMR(a, 1)
	}
	Dger(m, n, alpha, x, incX, y, incY, shadow, m)
	for j := 0; j < n; j++ {
		dmrCompare(&rep, a[j*lda:j*lda+m], 1, shadow[j*m:j*m+m])
	}
	dmrPool.Put(bp)
	if rep.Detections > 0 {
		return rep, ErrFTDetected
	}
	return rep, nil
}
