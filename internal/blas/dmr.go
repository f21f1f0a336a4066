package blas

import (
	"math"
	"sync"
)

// Dual modular redundancy for the memory-bound Level-2 ops that dominate
// the panel factorization (FT-BLAS style). Checksum encoding cannot pay
// for itself on O(mn)-flop kernels — the encode is the same order as the
// op — and a rank-1 or matrix-vector product perturbs too few outputs for
// a column-sum sweep to localise cheaply. So DgemvFT/DgerFT compute the
// result twice — once into the caller's output, once into a private
// contiguous shadow — and compare bit-for-bit.
//
// The NoTrans, unit-stride-y DgemvFT with the AVX2 kernels — the panel's
// hot shape — computes both copies in one pass (gemvNoTransDMR): each
// element of A is loaded once and feeds two independent multiply-add
// chains. Duplicating the arithmetic rather than the traffic saves the
// second pass over A of the memory-bound op. It narrows the fault model:
// a flip in the load path, in A itself or in a scalar t = alpha·x[j] feeds
// both chains identically and is invisible to the compare; the boundary
// checksum sweeps still cover A. Every other case (Trans, strided y, the
// portable kernels, and DgerFT) runs the untimed Level-2 core twice. Every
// DgemvFT scales y by beta once and seeds the shadow with the scaled
// values in the same pass (dmrSeed), so a flip in that scaling is shared
// by both copies too.
//
// The compare is exact, not thresholded: the parallel shards and the
// incY != 1 paths keep per-element operation order identical to serial
// contiguous execution (the package-wide determinism contract), so the
// two copies agree in every bit unless a transient fault struck one of
// them. That catches even single-ulp mantissa flips that sit far below
// any norm-based threshold. Any two NaNs compare equal, so non-finite
// *inputs* are not misreported as faults. A NaN's payload is outside the
// contract: x86 propagates the first operand's payload and the compiler
// picks the operand order per loop, so a strided primary and the
// contiguous shadow may carry different payloads for the same NaN. A bit
// gap involving a non-finite value sets FTResult.NonFinite.

// ftTestCorruptDMR, when non-nil, is called with the primary output after
// both copies are computed and before the compare (test hook: plants the
// fault the shadow cannot see).
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
// contiguous shadow, filling rep. Each element is one check. A vectorised
// all-bits-equal test settles the clean case; only a mismatch (or a
// strided output) walks the elements to classify it.
func dmrCompare(rep *FTResult, out []float64, inc int, shadow []float64) {
	rep.Checks += len(shadow)
	if inc == 1 && bitsEqual(out[:len(shadow)], shadow) {
		return
	}
	for i, iy := 0, 0; i < len(shadow); i, iy = i+1, iy+inc {
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

// bitsEqual reports whether y[i] and s[i] have the same bits for every i:
// the OR of their XORs is zero, with no branch per element.
func bitsEqual(y, s []float64) bool {
	y = y[:len(s)]
	var d uint64
	for i, v := range s {
		d |= math.Float64bits(y[i]) ^ math.Float64bits(v)
	}
	return d == 0
}

// dmrSeed scales y by beta exactly as gemvScale does (beta == 0 clears,
// beta == 1 leaves y alone) and copies the scaled values into the
// contiguous shadow in the same pass.
func dmrSeed(lenY int, beta float64, y []float64, incY int, shadow []float64) {
	switch {
	case beta == 0:
		for i, iy := 0, 0; i < lenY; i, iy = i+1, iy+incY {
			y[iy] = 0
		}
		clear(shadow)
	case beta == 1:
		for i, iy := 0, 0; i < lenY; i, iy = i+1, iy+incY {
			shadow[i] = y[iy]
		}
	default:
		for i, iy := 0, 0; i < lenY; i, iy = i+1, iy+incY {
			y[iy] *= beta
			shadow[i] = y[iy]
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
		return rep, nil
	}
	if done := opTimer("gemv_ft", 2*float64(m)*float64(n)); done != nil {
		defer done()
	}
	bp := dmrBuf(lenY)
	shadow := *bp
	dmrSeed(lenY, beta, y, incY, shadow)
	switch {
	case alpha == 0: // y := beta*y only, as in Dgemv
	case trans == NoTrans && incY == 1 && useAVXKernel:
		gemvNoTransDMR(m, n, alpha, a, lda, x, incX, y, shadow)
	default:
		gemvUpdate(trans, m, n, alpha, a, lda, x, incX, y, incY)
		gemvUpdate(trans, m, n, alpha, a, lda, x, incX, shadow, 1)
	}
	if ftTestCorruptDMR != nil {
		ftTestCorruptDMR(y, incY)
	}
	dmrCompare(&rep, y, incY, shadow)
	dmrPool.Put(bp)
	if rep.Detections > 0 {
		return rep, ErrFTDetected
	}
	return rep, nil
}

// gemvNoTransDMR accumulates y += alpha*A*x and s += alpha*A*x in one pass
// over A, sharding rows exactly as Dgemv does.
func gemvNoTransDMR(m, n int, alpha float64, a []float64, lda int, x []float64, incX int, y, s []float64) {
	if p := procs(); p > 1 && 2*m*n >= parallelL2Threshold && m > 1 {
		chunks := min(p, m)
		ParallelFor(chunks, func(w int) {
			gemvNoTransRowsDMR(m, n, alpha, a, lda, x, incX, y, s, w*m/chunks, (w+1)*m/chunks)
		})
		return
	}
	gemvNoTransRowsDMR(m, n, alpha, a, lda, x, incX, y, s, 0, m)
}

// gemvNoTransRowsDMR is gemvNoTransRows into two outputs. Columns go four
// at a time through gemvDMR4AVX, which adds them in column order, so each
// output sees the rounding sequence of one axpy per column. A group with
// a zero t falls back to per-column axpys, keeping Dgemv's t == 0 skip.
func gemvNoTransRowsDMR(m, n int, alpha float64, a []float64, lda int, x []float64, incX int, y, s []float64, i0, i1 int) {
	ys, ss := y[i0:i1], s[i0:i1]
	var t [4]float64
	j, jx := 0, 0
	for ; j+4 <= n; j, jx = j+4, jx+4*incX {
		for c := range t {
			t[c] = alpha * x[jx+c*incX]
		}
		if t[0] != 0 && t[1] != 0 && t[2] != 0 && t[3] != 0 {
			gemvDMR4AVX(&t, a[j*lda+i0:(j+3)*lda+i1], lda, ys, ss)
			continue
		}
		for c, tc := range t {
			if tc != 0 {
				col := a[(j+c)*lda+i0 : (j+c)*lda+i1]
				axpyUnitary(tc, col, ys)
				axpyUnitary(tc, col, ss)
			}
		}
	}
	for ; j < n; j, jx = j+1, jx+incX {
		if t := alpha * x[jx]; t != 0 {
			col := a[j*lda+i0 : j*lda+i1]
			axpyUnitary(t, col, ys)
			axpyUnitary(t, col, ss)
		}
	}
}

// DgerFT computes A := alpha*x*yᵀ + A exactly like Dger and verifies the
// m×n result block by dual modular redundancy.
func DgerFT(m, n int, alpha float64, x []float64, incX int, y []float64, incY int, a []float64, lda int) (FTResult, error) {
	checkGer(m, n, x, incX, y, incY, a, lda)
	var rep FTResult
	if m == 0 || n == 0 || alpha == 0 {
		return rep, nil
	}
	if done := opTimer("ger_ft", 2*float64(m)*float64(n)); done != nil {
		defer done()
	}
	bp := dmrBuf(m * n)
	shadow := *bp
	for j := 0; j < n; j++ {
		copy(shadow[j*m:j*m+m], a[j*lda:j*lda+m])
	}
	gerUpdate(m, n, alpha, x, incX, y, incY, a, lda)
	gerUpdate(m, n, alpha, x, incX, y, incY, shadow, m)
	if ftTestCorruptDMR != nil {
		ftTestCorruptDMR(a, 1)
	}
	for j := 0; j < n; j++ {
		dmrCompare(&rep, a[j*lda:j*lda+m], 1, shadow[j*m:j*m+m])
	}
	dmrPool.Put(bp)
	if rep.Detections > 0 {
		return rep, ErrFTDetected
	}
	return rep, nil
}
