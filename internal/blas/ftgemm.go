package blas

import (
	"errors"
	"math"
	"slices"
	"sync"
)

// Fused-ABFT Dgemm (FT-BLAS / "Anatomy of High-Performance GEMM with
// Online Fault Tolerance" style): every checksum pass rides a pass the
// data path makes anyway. The encode rides the packing, the sums of the
// C tile ride the macro-kernel's strip sweep, and the predictions are a
// 4-lane multiply-add over the packed panels.
//
// DgemmFT runs Dgemm's loop nest (gemmOp.run, level3.go) and checks per
// work item: an FT tile is one MC row block × one range of NR strips.
// Algebra, per tile and KC-deep panel pair:
//
//	column check:  Σ_i ΔC[i,j] = alpha · Σ_p (Σ_i A[i,p]) · B[p,j]
//	row check:     Σ_j ΔC[i,j] = alpha · Σ_p A[i,p] · (Σ_j B[p,j])
//
// packA/packB accumulate the inner parenthesised sums for free while
// packing (pack.go); ftPredict multiplies them against every packed
// micro-panel, one FMA per k step and micro-panel with all four lanes
// useful. The sums of beta·C come from the micro-kernels' own C loads,
// and those of the finished tile from one NR-column strip at a time,
// right after the strip's micro-kernels while it is L1-resident
// (macroKernelFT). The checks compare them once per tile.
//
// The data path — the loop nest, the pack stores, the beta scaling and the
// micro-kernels — is the plain Dgemm path, so DgemmFT results are bitwise
// identical to Dgemm at any SetMaxProcs value (property-tested).

// ErrFTDetected reports that a fused-ABFT or DMR check observed a
// mismatch between computed and predicted results. The output buffer
// holds the (possibly corrupted) primary result; correction is the
// caller's job — see DESIGN.md §14.
var ErrFTDetected = errors.New("blas: fault detected by fused ABFT check")

// ftThresholdFactor scales the fused checksum comparison threshold, in
// units of the accumulated roundoff bound (same 200× convention as the
// ft package's sweep detector).
const ftThresholdFactor = 200.0

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
// charges fused GEMMs this premium (internal/gpu). It describes the
// earlier unfused design (predictions through the full micro-kernel,
// separate passes over C) and is kept so no modeled number moves; it
// over-charges the fused kernel (DESIGN.md §14).
func FTGemmOverheadFrac(m, n, k int) float64 {
	if m <= 0 || n <= 0 || k <= 0 {
		return 0
	}
	mc := float64(min(gemmMC, m))
	nc := float64(min(gemmNC, n))
	return 4/mc + 4/nc + 3/float64(k) + (mc+nc)/(2*mc*nc)
}

// Test hooks (nil in production), called from each work item to plant
// faults at the two places a transient flip can land: the packed panels
// feeding the micro-kernel, once per KC chunk (pc is the chunk's first k
// index), and the finished C tile before its verify. (ic, jc) is the
// top-left element in C of the item's tile. The packed hook gets the
// item's A block and a private copy of its strips of the shared B block,
// so a flip reaches only that item. The tile hook runs once per NR-column
// strip, after the strip's columns [j0, j1) of the mc-row tile ct are
// final and before their sums are taken. The hooks are not synchronised:
// on the parallel path a hook must guard its own state.
var (
	ftTestCorruptPacked func(bufA, bufB []float64, ic, jc, pc int)
	ftTestCorruptTile   func(ct []float64, ldc, ic, jc, mc, j0, j1 int)
)

// ftTileBufs carries one work item's checksum state across the KC
// chunks: the A block's checksum vector and the expected/observed
// row/column aggregates. The aggregate arrays are padded to whole
// micro-panels because the prediction kernel writes MR or NR lanes at a
// time. Recycled through a pool so steady-state DgemmFT does no
// allocation beyond the report slots.
type ftTileBufs struct {
	ic, jc int             // the tile's top-left element in C
	sumA   [gemmKC]float64 // column sums of the packed A block, per k step
	// expected final sums: the sums of beta·C plus alpha·(predicted
	// update sums), accumulated over KC chunks.
	expRow [gemmMC]float64
	expCol [gemmNC]float64
	// absolute-value sums of beta·C anchoring the comparison thresholds.
	preAbsRow [gemmMC]float64
	preAbsCol [gemmNC]float64
	// observed sums of the finished tile.
	rowSum [gemmMC]float64
	rowAbs [gemmMC]float64
	colSum [gemmNC]float64
	colAbs [gemmNC]float64
}

// reset zeroes the aggregates the mc×nc tile at (ic, jc) reads or
// accumulates into.
func (fb *ftTileBufs) reset(ic, jc, mc, nc int) {
	fb.ic, fb.jc = ic, jc
	mc = (mc + gemmMR - 1) / gemmMR * gemmMR
	nc = (nc + gemmNR - 1) / gemmNR * gemmNR
	for _, r := range [][]float64{fb.expRow[:mc], fb.preAbsRow[:mc], fb.rowSum[:mc], fb.rowAbs[:mc],
		fb.expCol[:nc], fb.preAbsCol[:nc], fb.colSum[:nc], fb.colAbs[:nc]} {
		clear(r)
	}
}

var ftBufPool = sync.Pool{New: func() any { return new(ftTileBufs) }}

// DgemmFT computes C := alpha*op(A)*op(B) + beta*C exactly like Dgemm —
// bitwise-identical output at any SetMaxProcs — and additionally verifies
// every work item's tile of C against fused row/column checksums before
// returning. On a mismatch (or any non-finite checksum total) it returns
// ErrFTDetected with the counts in FTResult; C holds the primary result
// either way.
func DgemmFT(tA, tB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) (FTResult, error) {
	op := gemmOp{tA, tB, m, n, k, alpha, beta, a, b, c, lda, ldb, ldc}
	if !op.validate("DgemmFT") {
		return FTResult{}, nil
	}
	flops := 2 * float64(m) * float64(n) * float64(k)
	if done := opTimer("gemm_ft", flops*(1+FTGemmOverheadFrac(m, n, k))); done != nil {
		defer done()
	}
	// The first column block has the most work items.
	g := newGemmGrid(m, n, k)
	nc := min(g.width, n)
	items := g.mBlocks * g.ranges(nc)
	ft := &ftGemm{fbs: make([]*ftTileBufs, items), reports: make([]FTResult, items), sumB: make([]float64, g.ranges(nc)*min(k, gemmKC))}
	for i := range ft.fbs {
		ft.fbs[i] = ftBufPool.Get().(*ftTileBufs)
	}
	op.run(ft)
	for _, fb := range ft.fbs {
		ftBufPool.Put(fb)
	}
	if ft.res.Detections > 0 {
		return ft.res, ErrFTDetected
	}
	return ft.res, nil
}

// ftGemm is DgemmFT's checksum state across gemmOp.run's loop nest.
type ftGemm struct {
	fbs     []*ftTileBufs // one per work item of a column block, live across its KC chunks
	reports []FTResult    // the per-item report slots of a column block
	sumB    []float64     // row sums of each strip range of the packed B block, kc apart
	res     FTResult      // the merged reports of the finished column blocks
}

// end merges the reports of a column block's items, in item order, and
// clears their slots for the next block.
func (ft *ftGemm) end(items int) {
	for _, r := range ft.reports[:items] {
		ft.res.merge(r)
	}
	clear(ft.reports)
}

// rowSums is where packB puts strip range r's row sums for a kc-deep
// chunk; nil (no sums) for plain Dgemm.
func (ft *ftGemm) rowSums(r, kc int) []float64 {
	if ft == nil {
		return nil
	}
	return ft.sumB[r*kc : r*kc+kc]
}

// item runs one fused work item: Dgemm's item with the checksum dataflow
// threaded through it. It writes only its own buffers and report slot, so
// any number of items may run concurrently and the final merge stays
// deterministic.
func (ft *ftGemm) item(op *gemmOp, it *gemmItem) {
	fb := ft.fbs[it.t]
	if it.pc == 0 {
		fb.reset(it.ic, it.jc, it.mc, it.nc)
	}
	bufA := packAPool.Get().(*[]float64)
	defer packAPool.Put(bufA)
	pa, pb := *bufA, it.pb
	packA(op.tA, op.a, op.lda, it.ic, it.pc, it.mc, it.kc, pa, fb.sumA[:it.kc])
	if ftTestCorruptPacked != nil {
		pb = slices.Clone(pb)
		ftTestCorruptPacked(pa, pb, it.ic, it.jc, it.pc)
	}
	last := it.pc+it.kc >= op.k
	macroKernelFT(it.mc, it.nc, it.kc, op.alpha, op.beta, pa, pb, op.c[it.jc*op.ldc+it.ic:], op.ldc, fb, it.pc == 0, last)
	// Column predictions: alpha·(Σ_i A[i,p])·B[p,j] against every packed
	// B micro-panel; row predictions: alpha·A[i,p]·(Σ_j B[p,j]) against
	// every packed A micro-panel.
	mPanels := (it.mc + gemmMR - 1) / gemmMR
	ftPredict(it.kc, op.alpha, pb, fb.sumA[:it.kc], fb.expCol[:len(pb)/it.kc])
	ftPredict(it.kc, op.alpha, pa[:mPanels*it.kc*gemmMR], ft.rowSums(it.r, it.kc), fb.expRow[:mPanels*gemmMR])
	if !last {
		return
	}
	rep := &ft.reports[it.t]
	scale := ftThresholdFactor * ftMacheps * float64(op.k+2)
	for j := 0; j < it.nc; j++ {
		ftCheck(rep, fb.colSum[j], fb.expCol[j], scale*(fb.preAbsCol[j]+fb.colAbs[j]+1))
	}
	for i := 0; i < it.mc; i++ {
		ftCheck(rep, fb.rowSum[i], fb.expRow[i], scale*(fb.preAbsRow[i]+fb.rowAbs[i]+1))
	}
}

// macroKernelFT is Dgemm's macro-kernel, one NR-column strip at a time,
// with the tile's checksum sums folded in. On the first KC chunk it
// applies beta to each strip (per element exactly as plain Dgemm's
// scaleBlock) and, unless beta is 0, adds the sums of beta·C into the
// expectations: inside the AVX2 micro-kernels' C loads for a full strip's
// whole 4×4 tiles (macroStripPreAVX), so C is first read where plain
// Dgemm reads it, and with a strip pass right before the micro-kernels
// elsewhere. On the last chunk it takes the observed sums of
// each strip right after its micro-kernels, while the strip is
// L1-resident. The checksums cost no pass over the tile of their own, and
// C is updated in the same per-element order as Dgemm.
func macroKernelFT(mc, nc, kc int, alpha, beta float64, bufA, bufB, c []float64, ldc int, fb *ftTileBufs, first, last bool) {
	for jr := 0; jr < nc; jr += gemmNR {
		nr := min(gemmNR, nc-jr)
		cs := c[jr*ldc:]
		pb := bufB[(jr/gemmNR)*kc*gemmNR:]
		if first {
			scaleBlock(mc, nr, beta, cs, ldc)
		}
		switch {
		case first && beta != 0 && useAVXKernel && nr == gemmNR:
			mc4 := mc &^ (gemmMR - 1)
			macroStripPreAVX(kc, alpha, bufA, pb, cs, ldc, fb.expRow[:mc4], fb.preAbsRow[:mc4], fb.expCol[jr:jr+nr], fb.preAbsCol[jr:jr+nr])
			if mc4 < mc {
				stripSums(cs[mc4:], ldc, nr, fb.expRow[mc4:mc], fb.preAbsRow[mc4:mc], fb.expCol[jr:jr+nr], fb.preAbsCol[jr:jr+nr])
				microKernelEdge(kc, alpha, bufA[(mc4/gemmMR)*kc*gemmMR:], pb, cs[mc4:], ldc, mc-mc4, nr)
			}
		case first && beta != 0:
			stripSums(cs, ldc, nr, fb.expRow[:mc], fb.preAbsRow[:mc], fb.expCol[jr:jr+nr], fb.preAbsCol[jr:jr+nr])
			fallthrough
		default:
			macroStrip(mc, kc, nr, alpha, bufA, pb, cs, ldc)
		}
		if last {
			if ftTestCorruptTile != nil {
				ftTestCorruptTile(c, ldc, fb.ic, fb.jc, mc, jr, jr+nr)
			}
			stripSums(cs, ldc, nr, fb.rowSum[:mc], fb.rowAbs[:mc], fb.colSum[jr:jr+nr], fb.colAbs[jr:jr+nr])
		}
	}
}

// stripSums reads the len(row)×nr strip c (column stride ldc, nr ≤ NR)
// once: it adds the strip's row sums and |·| row sums into row and
// rowAbs, and its column sums and |·| column sums into col and colAbs. A
// full strip goes through ftSums4, so the row read-modify-writes amortize
// to one per four elements.
func stripSums(c []float64, ldc, nr int, row, rowAbs, col, colAbs []float64) {
	mc := len(row)
	if nr == 4 {
		var sums [8]float64
		ftSums4(c[:3*ldc+mc], ldc, row, rowAbs, &sums)
		for j := range 4 {
			col[j] += sums[j]
			colAbs[j] += sums[4+j]
		}
		return
	}
	for j := 0; j < nr; j++ {
		cc := c[j*ldc : j*ldc+mc]
		colSum, colAbs1 := 0.0, 0.0
		for i, v := range cc {
			colSum += v
			av := math.Abs(v)
			colAbs1 += av
			row[i] += v
			rowAbs[i] += av
		}
		col[j] += colSum
		colAbs[j] += colAbs1
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

// ftPredict adds alpha·Σ_p panel[p·4+l]·s[p] into out[4i+l] for every
// packed 4-lane micro-panel i of panels (kc k steps each, len(out)/4 of
// them) and lane l: one column of predicted checksums per micro-panel, all
// four lanes useful. Lanes past a fringe are the packers' zero padding, so
// they predict exact zeros.
func ftPredict(kc int, alpha float64, panels, s, out []float64) {
	if useAVXKernel {
		ftPredictAVX(kc, alpha, panels, s, out)
		return
	}
	ftPredictGo(kc, alpha, panels, s, out)
}

func ftPredictGo(kc int, alpha float64, panels, s, out []float64) {
	for i := 0; i < len(out); i += 4 {
		pp := panels[i*kc : i*kc+4*kc]
		var a0, a1, a2, a3 float64
		for p, sp := range s[:kc] {
			v := pp[4*p : 4*p+4]
			a0 += v[0] * sp
			a1 += v[1] * sp
			a2 += v[2] * sp
			a3 += v[3] * sp
		}
		out[i] += alpha * a0
		out[i+1] += alpha * a1
		out[i+2] += alpha * a2
		out[i+3] += alpha * a3
	}
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
