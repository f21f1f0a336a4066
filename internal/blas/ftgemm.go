package blas

import (
	"errors"
	"math"
	"sync"
)

// Fused-ABFT Dgemm (FT-BLAS / "Anatomy of High-Performance GEMM with
// Online Fault Tolerance" style): the checksum encode rides inside the
// packing step, the checksum product rides through the same MR×NR
// micro-kernel as the data (AVX asm path included), and the verify runs
// in the macro-kernel epilogue while the C tile is still hot in cache.
//
// Algebra, per MC×NC tile and KC-deep panel pair:
//
//	column check:  Σ_i ΔC[i,j] = alpha · Σ_p (Σ_i A[i,p]) · B[p,j]
//	row check:     Σ_j ΔC[i,j] = alpha · Σ_p A[i,p] · (Σ_j B[p,j])
//
// packAFT/packBFT accumulate the inner parenthesised sums for free while
// packing; the outer products are one extra micro-kernel sweep per packed
// panel (a single synthetic micro-panel against every real one), so the
// predicted row/column sums of the update are computed by the very kernel
// being checked. The epilogue compares them against one fresh pass over
// the finished tile. Extra flops ≈ 4/MC + 4/NC ≈ 4.7% at blocking size,
// amortising further with k (see FTGemmOverheadFrac).
//
// The data path — scaleBlock, pack stores, macroKernel — is instruction-
// for-instruction the plain Dgemm path, so DgemmFT results are bitwise
// identical to Dgemm at any SetMaxProcs value (property-tested).

// ErrFTDetected reports that a fused-ABFT or DMR check observed a
// mismatch between computed and predicted results. The output buffer
// holds the (possibly corrupted) primary result; correction is the
// caller's job — see DESIGN.md §14.
var ErrFTDetected = errors.New("blas: fault detected by fused ABFT check")

// FTThresholdFactor scales the fused checksum comparison threshold, in
// units of the accumulated roundoff bound (same 200× convention as the
// ft package's sweep detector). A variable so tests can tighten it.
var FTThresholdFactor = 200.0

// ftMacheps is the double-precision unit roundoff.
const ftMacheps = 2.220446049250313e-16

// FTResult reports the outcome of one fused-ABFT BLAS call.
type FTResult struct {
	// Checks counts row + column checksum comparisons (Dgemm) or
	// element compares (DMR level-2).
	Checks int
	// Detections counts comparisons that exceeded their threshold.
	Detections int
	// MaxResidual is the largest observed |gap|/threshold ratio
	// (>1 means a detection); for DMR it is the largest |Δ|.
	MaxResidual float64
	// NonFinite reports that a checksum total or compared element was
	// NaN/±Inf. Non-finite totals defeat any threshold, so they are
	// always counted as detections, never silently passed (the PR 3
	// exponent-bit lesson).
	NonFinite bool
}

// merge folds a per-tile report into the aggregate. Order-independent
// (sum/max/or), so the serial reduction over the tile-slot array is
// deterministic at any worker count.
func (r *FTResult) merge(t FTResult) {
	r.Checks += t.Checks
	r.Detections += t.Detections
	if t.MaxResidual > r.MaxResidual {
		r.MaxResidual = t.MaxResidual
	}
	r.NonFinite = r.NonFinite || t.NonFinite
}

// FTGemmOverheadFrac models the extra-flop fraction of DgemmFT over plain
// Dgemm for an m×n×k product: one synthetic micro-panel sweep per packed
// panel in each direction (4/MC + 4/NC of the tile flops), the packing
// adds, and the pre/epilogue passes over C (≈3/k). The simulated device
// charges fused GEMMs this premium (internal/gpu).
func FTGemmOverheadFrac(m, n, k int) float64 {
	if m <= 0 || n <= 0 || k <= 0 {
		return 0
	}
	mc := float64(min(gemmMC, m))
	nc := float64(min(gemmNC, n))
	return 4/mc + 4/nc + 3/float64(k) + (mc+nc)/(2*mc*nc)
}

// Test hooks (nil in production): called from inside gemmTileFT to plant
// faults at the two places a transient flip can land — the packed panels
// feeding the micro-kernel, and the accumulated C tile before the
// epilogue verify. Serial-path tests only; not synchronised.
var (
	ftTestCorruptPacked func(bufA, bufB []float64)
	ftTestCorruptTile   func(ct []float64, ldc, mc, nc int)
)

// ftTileBufs carries the per-tile checksum state: the synthetic sum
// micro-panels and the expected/observed row/column aggregates. Recycled
// through a pool so steady-state DgemmFT does no allocation beyond the
// report slots.
type ftTileBufs struct {
	sumA [gemmKC * gemmMR]float64 // packed-A column sums, MR-lane layout
	sumB [gemmKC * gemmNR]float64 // packed-B row sums, NR-lane layout
	// expected final sums: beta·(pre-update sums) + alpha·(predicted
	// update sums), accumulated over KC chunks.
	expRow [gemmMC]float64
	expCol [gemmNC]float64
	// absolute-value sums anchoring the comparison thresholds.
	preAbsRow [gemmMC]float64
	preAbsCol [gemmNC]float64
	// observed sums of the finished tile.
	rowSum [gemmMC]float64
	rowAbs [gemmMC]float64
	colSum [gemmNC]float64
	colAbs [gemmNC]float64
}

var ftBufPool = sync.Pool{New: func() any { return new(ftTileBufs) }}

// DgemmFT computes C := alpha*op(A)*op(B) + beta*C exactly like Dgemm —
// bitwise-identical output at any SetMaxProcs — and additionally verifies
// every C tile against fused row/column checksums before returning. On a
// mismatch (or any non-finite checksum total) it returns ErrFTDetected
// with the counts in FTResult; C holds the primary result either way.
func DgemmFT(tA, tB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) (FTResult, error) {
	ar, ac := m, k
	if tA == Trans {
		ar, ac = k, m
	}
	br, bc := k, n
	if tB == Trans {
		br, bc = n, k
	}
	checkMatrix("DgemmFT", ar, ac, lda, a)
	checkMatrix("DgemmFT", br, bc, ldb, b)
	checkMatrix("DgemmFT", m, n, ldc, c)
	if m == 0 || n == 0 {
		return FTResult{}, nil
	}
	if alpha == 0 || k == 0 {
		scaleCols(m, n, beta, c, ldc, 0, n)
		return FTResult{}, nil
	}
	flops := 2 * float64(m) * float64(n) * float64(k)
	if done := opTimer("gemm_ft", flops*(1+FTGemmOverheadFrac(m, n, k))); done != nil {
		defer done()
	}
	mBlocks := (m + gemmMC - 1) / gemmMC
	nBlocks := (n + gemmNC - 1) / gemmNC
	tasks := mBlocks * nBlocks
	reports := make([]FTResult, tasks)
	tile := func(t int) {
		ic := (t % mBlocks) * gemmMC
		jc := (t / mBlocks) * gemmNC
		gemmTileFT(tA, tB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, ic, jc, &reports[t])
	}
	if procs() > 1 && tasks > 1 && 2*m*n*k >= parallelGemmThreshold {
		parallelFor(tasks, tile)
	} else {
		for t := 0; t < tasks; t++ {
			tile(t)
		}
	}
	var res FTResult
	for t := range reports {
		res.merge(reports[t])
	}
	if res.Detections > 0 {
		return res, ErrFTDetected
	}
	return res, nil
}

// gemmTileFT is gemmTile with the fused checksum dataflow threaded
// through it. The tile writes only its own report slot, so any number of
// tiles may run concurrently and the final reduction stays deterministic.
func gemmTileFT(tA, tB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc, ic, jc int, rep *FTResult) {
	mc := min(gemmMC, m-ic)
	nc := min(gemmNC, n-jc)
	ct := c[jc*ldc+ic:]
	fb := ftBufPool.Get().(*ftTileBufs)
	defer ftBufPool.Put(fb)

	// Pre-update pass: expected sums start from beta·C, thresholds from
	// |beta·C|, scaled once per row and column after the raw pass. beta ==
	// 0 clears the tile, so both start at zero.
	if beta != 0 {
		checksumPass(ct, ldc, fb.expRow[:mc], fb.preAbsRow[:mc], fb.expCol[:nc], fb.preAbsCol[:nc])
		babs := math.Abs(beta)
		for i := 0; i < mc; i++ {
			fb.expRow[i] *= beta
			fb.preAbsRow[i] *= babs
		}
		for j := 0; j < nc; j++ {
			fb.expCol[j] *= beta
			fb.preAbsCol[j] *= babs
		}
	} else {
		clear(fb.expRow[:mc])
		clear(fb.preAbsRow[:mc])
		clear(fb.expCol[:nc])
		clear(fb.preAbsCol[:nc])
	}

	// Data path — identical to gemmTile — plus one synthetic micro-panel
	// sweep per direction per KC chunk to accumulate the predicted
	// update sums through the same micro-kernel.
	scaleBlock(mc, nc, beta, ct, ldc)
	bufA := packAPool.Get().(*[]float64)
	bufB := packBPool.Get().(*[]float64)
	for pc := 0; pc < k; pc += gemmKC {
		kc := min(gemmKC, k-pc)
		packBFT(tB, b, ldb, pc, jc, kc, nc, *bufB, fb.sumB[:])
		packAFT(tA, a, lda, ic, pc, mc, kc, *bufA, fb.sumA[:])
		if ftTestCorruptPacked != nil {
			ftTestCorruptPacked(*bufA, *bufB)
		}
		macroKernel(mc, nc, kc, alpha, *bufA, *bufB, ct, ldc)
		// Column predictions: sumA (1×kc, lane 0) against every packed
		// B micro-panel; row 0 of each scratch tile is alpha·uᵀB.
		for jr := 0; jr < nc; jr += gemmNR {
			pb := (*bufB)[(jr/gemmNR)*kc*gemmNR:]
			var t [gemmMR * gemmNR]float64
			microKernel(kc, alpha, fb.sumA[:], pb, t[:], gemmMR)
			nr := min(gemmNR, nc-jr)
			for cj := 0; cj < nr; cj++ {
				fb.expCol[jr+cj] += t[cj*gemmMR]
			}
		}
		// Row predictions: every packed A micro-panel against sumB
		// (kc×1, lane 0); column 0 of each scratch tile is alpha·Av.
		for ir := 0; ir < mc; ir += gemmMR {
			pa := (*bufA)[(ir/gemmMR)*kc*gemmMR:]
			var t [gemmMR * gemmNR]float64
			microKernel(kc, alpha, pa, fb.sumB[:], t[:], gemmMR)
			mr := min(gemmMR, mc-ir)
			for r := 0; r < mr; r++ {
				fb.expRow[ir+r] += t[r]
			}
		}
	}
	packAPool.Put(bufA)
	packBPool.Put(bufB)

	if ftTestCorruptTile != nil {
		ftTestCorruptTile(ct, ldc, mc, nc)
	}

	// Epilogue verify: one fresh pass over the finished tile computes
	// observed row/column sums and their absolute anchors, compared
	// against the expectations while the tile is still cache-hot.
	checksumPass(ct, ldc, fb.rowSum[:mc], fb.rowAbs[:mc], fb.colSum[:nc], fb.colAbs[:nc])
	scale := FTThresholdFactor * ftMacheps * float64(k+2)
	for j := 0; j < nc; j++ {
		ftCheck(rep, fb.colSum[j], fb.expCol[j], scale*(fb.preAbsCol[j]+fb.colAbs[j]+1))
	}
	for i := 0; i < mc; i++ {
		ftCheck(rep, fb.rowSum[i], fb.expRow[i], scale*(fb.preAbsRow[i]+fb.rowAbs[i]+1))
	}
}

// checksumPass reads the len(row)×len(col) tile ct once and writes its row
// sums and |·| row sums into row and rowAbs, and its column sums and |·|
// column sums into col and colAbs. Columns go four at a time (ftSums4) so
// the row read-modify-writes amortize to one per four elements: the
// epilogue pass is the whole of the 3/k overhead term, so its constant
// matters for the short-k trailing updates.
func checksumPass(ct []float64, ldc int, row, rowAbs, col, colAbs []float64) {
	mc, nc := len(row), len(col)
	clear(row)
	clear(rowAbs)
	var sums [8]float64
	j := 0
	for ; j+4 <= nc; j += 4 {
		ftSums4(ct[j*ldc:(j+3)*ldc+mc], ldc, row, rowAbs, &sums)
		copy(col[j:j+4], sums[:4])
		copy(colAbs[j:j+4], sums[4:])
	}
	for ; j < nc; j++ {
		cc := ct[j*ldc : j*ldc+mc]
		colSum, colAbs1 := 0.0, 0.0
		for i, v := range cc {
			colSum += v
			av := math.Abs(v)
			colAbs1 += av
			row[i] += v
			rowAbs[i] += av
		}
		col[j], colAbs[j] = colSum, colAbs1
	}
}

// ftSums4 is the checksum pass over the four columns c[0:], c[ldc:],
// c[2ldc:], c[3ldc:] and rows [0, len(row)): it adds v0+v1+v2+v3 into
// row[i] and |v0|+|v1|+|v2|+|v3| into rowAbs[i], and stores the column
// sums in sums[0:4] and the |·| column sums in sums[4:8]. The AVX2 kernel
// covers the rows in multiples of four with one column partial per lane;
// the rows it leaves continue in Go.
func ftSums4(c []float64, ldc int, row, rowAbs []float64, sums *[8]float64) {
	i := 0
	if useAVXKernel {
		i = len(row) &^ 3
		ftSums4AVX(c, ldc, row[:i], rowAbs[:i], sums)
	} else {
		*sums = [8]float64{}
	}
	ftSums4Go(c, ldc, row, rowAbs, sums, i)
}

// ftSums4Go continues ftSums4's sums over rows [i0, len(row)).
func ftSums4Go(c []float64, ldc int, row, rowAbs []float64, sums *[8]float64, i0 int) {
	mc := len(row)
	c0 := c[:mc]
	c1 := c[ldc : ldc+mc]
	c2 := c[2*ldc : 2*ldc+mc]
	c3 := c[3*ldc : 3*ldc+mc]
	s0, s1, s2, s3 := sums[0], sums[1], sums[2], sums[3]
	a0, a1, a2, a3 := sums[4], sums[5], sums[6], sums[7]
	for i := i0; i < mc; i++ {
		v0, v1, v2, v3 := c0[i], c1[i], c2[i], c3[i]
		w0, w1, w2, w3 := math.Abs(v0), math.Abs(v1), math.Abs(v2), math.Abs(v3)
		s0 += v0
		s1 += v1
		s2 += v2
		s3 += v3
		a0 += w0
		a1 += w1
		a2 += w2
		a3 += w3
		row[i] += v0 + v1 + v2 + v3
		rowAbs[i] += w0 + w1 + w2 + w3
	}
	*sums = [8]float64{s0, s1, s2, s3, a0, a1, a2, a3}
}

// ftCheck compares one observed sum against its prediction. Non-finite
// values on either side are unconditional detections: a NaN/Inf gap
// cannot be thresholded, and silence is the one forbidden outcome.
func ftCheck(rep *FTResult, got, want, tol float64) {
	rep.Checks++
	gap := math.Abs(got - want)
	if math.IsNaN(gap) || math.IsInf(gap, 0) {
		rep.Detections++
		rep.NonFinite = true
		rep.MaxResidual = math.Inf(1)
		return
	}
	ratio := gap / tol
	if ratio > rep.MaxResidual {
		rep.MaxResidual = ratio
	}
	if ratio > 1 {
		rep.Detections++
	}
}
