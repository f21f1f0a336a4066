package blas

import "sync"

// Level-3 BLAS. Dgemm is a BLIS-style cache-blocked kernel: MC/KC/NC
// blocking over packed panels of op(A) and op(B) (pack.go), a
// register-blocked MR×NR micro-kernel (microkernel.go), and rounds of
// work items on the shared worker pool (pool.go) for large problems.
// DgemmFT (ftgemm.go) runs the same loop nest. Dtrmm dispatches onto the
// same pool — by columns when the triangular factor is on the left, by
// rows when it is on the right.

// Parallelism thresholds in flops (2mnk; per round of work items for
// Dgemm). Below them the shard bookkeeping dominates and the routines
// stay on their serial path. They are variables so the property tests can
// force the pool path at tiny sizes.
var (
	parallelGemmThreshold = 1 << 21
	parallelTrmmThreshold = 1 << 21
)

// Dgemm computes C := alpha*op(A)*op(B) + beta*C where op(A) is m×k and
// op(B) is k×n.
//
// It runs the blocked loop nest gemmOp.run. A round of work items worth
// parallelGemmThreshold runs on the worker pool, so tall-skinny panel
// updates (m large, n small) and short-and-wide ones (m ≤ MC) parallelize
// as well as square products. Results are bitwise identical for every
// SetMaxProcs value.
func Dgemm(tA, tB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	op := gemmOp{tA, tB, m, n, k, alpha, beta, a, b, c, lda, ldb, ldc}
	if !op.validate("Dgemm") {
		return
	}
	if done := opTimer("gemm", 2*float64(m)*float64(n)*float64(k)); done != nil {
		defer done()
	}
	op.run(nil)
}

// gemmRefWorkers is the worker count the work-item grid is cut for. A
// round has at least one item per MC row block; when there are fewer row
// blocks than this and 2mnk ≥ gemmSplitFlops, the column block's NR
// strips are split into ranges as well, so a short product such as the
// left update's W = Vᵀ·C (m = nb = 32) still shards. The grid must not
// depend on SetMaxProcs: DgemmFT checks per item, and its report is the
// same at any worker count.
const gemmRefWorkers = 4

// gemmSplitFlops is gemmRefWorkers times the default
// parallelGemmThreshold: a split must leave each item enough work to pay
// for its hand-off to a worker, and a smaller product's extra items would
// only repack A. A variable so tests can split small products.
var gemmSplitFlops = gemmRefWorkers << 21

// gemmGrid is the work-item grid of an m×n×k product: column blocks of
// width columns, each cut into strip ranges, times mBlocks MC row blocks.
// A column block is NC wide, or as many NC as the KC×NC pack buffer
// holds when k < KC, so a shallow product such as the rank-nb trailing
// update runs in one round.
type gemmGrid struct{ mBlocks, splits, width int }

func newGemmGrid(m, n, k int) gemmGrid {
	mb, splits := (m+gemmMC-1)/gemmMC, 1
	if 2*m*n*k >= gemmSplitFlops {
		splits = (gemmRefWorkers + mb - 1) / mb
	}
	return gemmGrid{mb, splits, gemmNC * max(1, gemmKC/k)}
}

// ranges is the number of strip ranges of a column block nc wide: up to
// splits, and enough that none is wider than NC.
func (g gemmGrid) ranges(nc int) int {
	return max(min(g.splits, (nc+gemmNR-1)/gemmNR), (nc+gemmNC-1)/gemmNC)
}

// span returns the columns [j0, j1) of strip range r of a column block nc
// wide: whole strips, shared out as evenly as they go.
func (g gemmGrid) span(nc, r int) (j0, j1 int) {
	strips, parts := (nc+gemmNR-1)/gemmNR, g.ranges(nc)
	return r * strips / parts * gemmNR, min(nc, (r+1)*strips/parts*gemmNR)
}

// gemmOp is one Dgemm or DgemmFT call.
type gemmOp struct {
	tA, tB        Transpose
	m, n, k       int
	alpha, beta   float64
	a, b, c       []float64
	lda, ldb, ldc int
}

// validate checks the operands, panicking with the caller's name, and
// finishes the calls that multiply nothing (only beta·C is left). It
// reports whether the product still has to run.
func (op *gemmOp) validate(name string) bool {
	ar, ac := op.m, op.k
	if op.tA == Trans {
		ar, ac = op.k, op.m
	}
	br, bc := op.k, op.n
	if op.tB == Trans {
		br, bc = op.n, op.k
	}
	checkMatrix(name, ar, ac, op.lda, op.a)
	checkMatrix(name, br, bc, op.ldb, op.b)
	checkMatrix(name, op.m, op.n, op.ldc, op.c)
	if op.m == 0 || op.n == 0 {
		return false
	}
	if op.alpha == 0 || op.k == 0 {
		scaleBlock(op.m, op.n, op.beta, op.c, op.ldc)
		return false
	}
	return true
}

// gemmItem is one work item of a round: the mc×nc block of C with
// top-left element (ic, jc), for the KC chunk [pc, pc+kc). t is its index
// in the round, r its strip range, and pb its strips of the shared packed
// B block.
type gemmItem struct {
	t, r, ic, jc, mc, nc, pc, kc int
	pb                           []float64
}

// run is the one BLIS loop nest of Dgemm and, with ft != nil, DgemmFT.
// For each column block and each KC chunk of it, it runs a round of work
// items — one MC row block × one range of NR strips each — on the worker
// pool if the round is worth parallelGemmThreshold flops (2·m·nc·kc), so
// a thin fringe chunk or column block stays on the caller. op(B)'s kc×nc
// block is packed once per round, into one buffer every item of the
// round reads: each strip range by the first item that needs it, so the
// pack itself runs in parallel. An item packs its own A
// block, applies beta on the first chunk and runs the macro-kernel over
// its strips. Items write disjoint blocks of C, and every C element gets
// beta and then the KC chunks in ascending order whatever the grid and
// the worker count.
func (op *gemmOp) run(ft *ftGemm) {
	g := newGemmGrid(op.m, op.n, op.k)
	pool := procs() > 1
	bufB := packBPool.Get().(*[]float64)
	defer packBPool.Put(bufB)
	packed := make([]sync.Once, g.ranges(min(g.width, op.n)))
	for jc := 0; jc < op.n; jc += g.width {
		nc := min(g.width, op.n-jc)
		ranges := g.ranges(nc)
		items := g.mBlocks * ranges
		for pc := 0; pc < op.k; pc += gemmKC {
			kc := min(gemmKC, op.k-pc)
			clear(packed)
			item := func(t int) {
				ic, r := t/ranges*gemmMC, t%ranges
				j0, j1 := g.span(nc, r)
				pb := (*bufB)[j0*kc : (j1+gemmNR-1)/gemmNR*gemmNR*kc]
				packed[r].Do(func() { packB(op.tB, op.b, op.ldb, pc, jc+j0, kc, j1-j0, pb, ft.rowSums(r, kc)) })
				it := gemmItem{t, r, ic, jc + j0, min(gemmMC, op.m-ic), j1 - j0, pc, kc, pb}
				if ft != nil {
					ft.item(op, &it)
				} else {
					op.item(&it)
				}
			}
			if pool && 2*op.m*nc*kc >= parallelGemmThreshold {
				ParallelFor(items, item)
			} else {
				for t := range items {
					item(t)
				}
			}
		}
		if ft != nil {
			ft.end(items)
		}
	}
}

// item runs one plain work item.
func (op *gemmOp) item(it *gemmItem) {
	bufA := packAPool.Get().(*[]float64)
	packA(op.tA, op.a, op.lda, it.ic, it.pc, it.mc, it.kc, *bufA, nil)
	ct := op.c[it.jc*op.ldc+it.ic:]
	if it.pc == 0 {
		scaleBlock(it.mc, it.nc, op.beta, ct, op.ldc)
	}
	macroKernel(it.mc, it.nc, it.kc, op.alpha, *bufA, it.pb, ct, op.ldc)
	packAPool.Put(bufA)
}

// scaleBlock scales the mc×nc block at c (column stride ldc) by beta,
// overwriting with zeros when beta == 0 (reference semantics: beta == 0
// must clear NaNs).
func scaleBlock(mc, nc int, beta float64, c []float64, ldc int) {
	if beta == 1 {
		return
	}
	for j := 0; j < nc; j++ {
		cc := c[j*ldc : j*ldc+mc]
		if beta == 0 {
			for i := range cc {
				cc[i] = 0
			}
		} else {
			for i := range cc {
				cc[i] *= beta
			}
		}
	}
}

// naiveGemm is the pre-blocking Dgemm kernel (one axpy or dot loop nest per
// transpose case), kept private as the oracle for the property tests and
// the baseline the BENCH_blas.json speedups are measured against.
func naiveGemm(tA, tB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if m == 0 || n == 0 {
		return
	}
	scaleBlock(m, n, beta, c, ldc)
	if alpha == 0 || k == 0 {
		return
	}
	switch {
	case tA == NoTrans && tB == NoTrans:
		// C(:,j) += alpha * Σ_l B(l,j) * A(:,l)
		for j := 0; j < n; j++ {
			cc := c[j*ldc : j*ldc+m]
			for l := 0; l < k; l++ {
				t := alpha * b[j*ldb+l]
				if t == 0 {
					continue
				}
				ac := a[l*lda : l*lda+m]
				for i := range cc {
					cc[i] += t * ac[i]
				}
			}
		}
	case tA == NoTrans && tB == Trans:
		// C(:,j) += alpha * Σ_l B(j,l) * A(:,l)
		for j := 0; j < n; j++ {
			cc := c[j*ldc : j*ldc+m]
			for l := 0; l < k; l++ {
				t := alpha * b[l*ldb+j]
				if t == 0 {
					continue
				}
				ac := a[l*lda : l*lda+m]
				for i := range cc {
					cc[i] += t * ac[i]
				}
			}
		}
	case tA == Trans && tB == NoTrans:
		// C(i,j) += alpha * dot(A(:,i), B(:,j))
		for j := 0; j < n; j++ {
			bc := b[j*ldb : j*ldb+k]
			cc := c[j*ldc : j*ldc+m]
			for i := 0; i < m; i++ {
				ac := a[i*lda : i*lda+k]
				sum := 0.0
				for l := range bc {
					sum += ac[l] * bc[l]
				}
				cc[i] += alpha * sum
			}
		}
	default: // Trans, Trans
		// C(i,j) += alpha * Σ_l A(l,i) * B(j,l)
		for j := 0; j < n; j++ {
			cc := c[j*ldc : j*ldc+m]
			for i := 0; i < m; i++ {
				ac := a[i*lda : i*lda+k]
				sum := 0.0
				for l := 0; l < k; l++ {
					sum += ac[l] * b[l*ldb+j]
				}
				cc[i] += alpha * sum
			}
		}
	}
}

// Dtrmm computes B := alpha*op(A)*B (Left) or B := alpha*B*op(A) (Right)
// where A is triangular and B is m×n.
//
// For side == Left each column of B transforms independently, so large
// problems shard columns across the worker pool; for side == Right each
// row transforms independently and rows are sharded instead. Either way
// every B element keeps its serial operation order.
func Dtrmm(side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	na := m
	if side == Right {
		na = n
	}
	checkMatrix("Dtrmm", na, na, lda, a)
	checkMatrix("Dtrmm", m, n, ldb, b)
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 {
		scaleBlock(m, n, 0, b, ldb)
		return
	}
	if done := opTimer("trmm", float64(m)*float64(n)*float64(na)); done != nil {
		defer done()
	}
	span := n // Left: independent columns
	if side == Right {
		span = m // Right: independent rows
	}
	p := procs()
	if p > 1 && m*n*na >= parallelTrmmThreshold && span > 1 {
		chunks := min(p, span)
		ParallelFor(chunks, func(w int) {
			lo := w * span / chunks
			hi := (w + 1) * span / chunks
			trmmRange(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb, lo, hi)
		})
		return
	}
	trmmRange(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb, 0, span)
}

// trmmRange applies the Dtrmm update to columns [lo, hi) of B when side ==
// Left, or to rows [lo, hi) when side == Right.
func trmmRange(side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int, lo, hi int) {
	nonUnit := diag == NonUnit
	switch {
	case side == Left && trans == NoTrans && uplo == Upper:
		for j := lo; j < hi; j++ {
			bc := b[j*ldb:]
			for k := 0; k < m; k++ {
				if bc[k] == 0 {
					continue
				}
				t := alpha * bc[k]
				ac := a[k*lda:]
				axpyUnitary(t, ac[:k], bc)
				if nonUnit {
					t *= ac[k]
				}
				bc[k] = t
			}
		}
	case side == Left && trans == NoTrans && uplo == Lower:
		for j := lo; j < hi; j++ {
			bc := b[j*ldb:]
			for k := m - 1; k >= 0; k-- {
				if bc[k] == 0 {
					continue
				}
				t := alpha * bc[k]
				ac := a[k*lda:]
				bc[k] = t
				if nonUnit {
					bc[k] *= ac[k]
				}
				axpyUnitary(t, ac[k+1:m], bc[k+1:])
			}
		}
	case side == Left && trans == Trans && uplo == Upper:
		for j := lo; j < hi; j++ {
			bc := b[j*ldb:]
			for i := m - 1; i >= 0; i-- {
				ac := a[i*lda:]
				t := bc[i]
				if nonUnit {
					t *= ac[i]
				}
				for k := 0; k < i; k++ {
					t += ac[k] * bc[k]
				}
				bc[i] = alpha * t
			}
		}
	case side == Left && trans == Trans && uplo == Lower:
		for j := lo; j < hi; j++ {
			bc := b[j*ldb:]
			for i := 0; i < m; i++ {
				ac := a[i*lda:]
				t := bc[i]
				if nonUnit {
					t *= ac[i]
				}
				for k := i + 1; k < m; k++ {
					t += ac[k] * bc[k]
				}
				bc[i] = alpha * t
			}
		}
	case side == Right && trans == NoTrans && uplo == Upper:
		for j := n - 1; j >= 0; j-- {
			t := alpha
			if nonUnit {
				t *= a[j*lda+j]
			}
			bj := b[j*ldb+lo : j*ldb+hi]
			if t != 1 {
				for i := range bj {
					bj[i] *= t
				}
			}
			for k := 0; k < j; k++ {
				if a[j*lda+k] == 0 {
					continue
				}
				t = alpha * a[j*lda+k]
				axpyUnitary(t, b[k*ldb+lo:k*ldb+hi], bj)
			}
		}
	case side == Right && trans == NoTrans && uplo == Lower:
		for j := 0; j < n; j++ {
			t := alpha
			if nonUnit {
				t *= a[j*lda+j]
			}
			bj := b[j*ldb+lo : j*ldb+hi]
			if t != 1 {
				for i := range bj {
					bj[i] *= t
				}
			}
			for k := j + 1; k < n; k++ {
				if a[j*lda+k] == 0 {
					continue
				}
				t = alpha * a[j*lda+k]
				axpyUnitary(t, b[k*ldb+lo:k*ldb+hi], bj)
			}
		}
	case side == Right && trans == Trans && uplo == Upper:
		for k := 0; k < n; k++ {
			ak := a[k*lda:]
			bk := b[k*ldb+lo : k*ldb+hi]
			for j := 0; j < k; j++ {
				if ak[j] == 0 {
					continue
				}
				t := alpha * ak[j]
				axpyUnitary(t, bk, b[j*ldb+lo:j*ldb+hi])
			}
			t := alpha
			if nonUnit {
				t *= ak[k]
			}
			if t != 1 {
				for i := range bk {
					bk[i] *= t
				}
			}
		}
	default: // Right, Trans, Lower
		for k := n - 1; k >= 0; k-- {
			ak := a[k*lda:]
			bk := b[k*ldb+lo : k*ldb+hi]
			for j := k + 1; j < n; j++ {
				if ak[j] == 0 {
					continue
				}
				t := alpha * ak[j]
				axpyUnitary(t, bk, b[j*ldb+lo:j*ldb+hi])
			}
			t := alpha
			if nonUnit {
				t *= ak[k]
			}
			if t != 1 {
				for i := range bk {
					bk[i] *= t
				}
			}
		}
	}
}

// Dtrsm solves op(A)*X = alpha*B (Left) or X*op(A) = alpha*B (Right) for X,
// overwriting B with the solution. A is triangular, B is m×n. Dtrsm sits
// on no hot path of the reduction and stays serial.
func Dtrsm(side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	na := m
	if side == Right {
		na = n
	}
	checkMatrix("Dtrsm", na, na, lda, a)
	checkMatrix("Dtrsm", m, n, ldb, b)
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 {
		scaleBlock(m, n, 0, b, ldb)
		return
	}
	nonUnit := diag == NonUnit
	switch {
	case side == Left && trans == NoTrans && uplo == Upper:
		for j := 0; j < n; j++ {
			bc := b[j*ldb:]
			if alpha != 1 {
				for i := 0; i < m; i++ {
					bc[i] *= alpha
				}
			}
			for k := m - 1; k >= 0; k-- {
				if bc[k] == 0 {
					continue
				}
				ac := a[k*lda:]
				if nonUnit {
					bc[k] /= ac[k]
				}
				axpySubUnitary(bc[k], ac[:k], bc)
			}
		}
	case side == Left && trans == NoTrans && uplo == Lower:
		for j := 0; j < n; j++ {
			bc := b[j*ldb:]
			if alpha != 1 {
				for i := 0; i < m; i++ {
					bc[i] *= alpha
				}
			}
			for k := 0; k < m; k++ {
				if bc[k] == 0 {
					continue
				}
				ac := a[k*lda:]
				if nonUnit {
					bc[k] /= ac[k]
				}
				axpySubUnitary(bc[k], ac[k+1:m], bc[k+1:])
			}
		}
	case side == Left && trans == Trans && uplo == Upper:
		for j := 0; j < n; j++ {
			bc := b[j*ldb:]
			for i := 0; i < m; i++ {
				ac := a[i*lda:]
				t := alpha * bc[i]
				for k := 0; k < i; k++ {
					t -= ac[k] * bc[k]
				}
				if nonUnit {
					t /= ac[i]
				}
				bc[i] = t
			}
		}
	case side == Left && trans == Trans && uplo == Lower:
		for j := 0; j < n; j++ {
			bc := b[j*ldb:]
			for i := m - 1; i >= 0; i-- {
				ac := a[i*lda:]
				t := alpha * bc[i]
				for k := i + 1; k < m; k++ {
					t -= ac[k] * bc[k]
				}
				if nonUnit {
					t /= ac[i]
				}
				bc[i] = t
			}
		}
	case side == Right && trans == NoTrans && uplo == Upper:
		for j := 0; j < n; j++ {
			bj := b[j*ldb : j*ldb+m]
			if alpha != 1 {
				for i := range bj {
					bj[i] *= alpha
				}
			}
			for k := 0; k < j; k++ {
				if a[j*lda+k] == 0 {
					continue
				}
				axpySubUnitary(a[j*lda+k], b[k*ldb:k*ldb+m], bj)
			}
			if nonUnit {
				t := 1 / a[j*lda+j]
				for i := range bj {
					bj[i] *= t
				}
			}
		}
	case side == Right && trans == NoTrans && uplo == Lower:
		for j := n - 1; j >= 0; j-- {
			bj := b[j*ldb : j*ldb+m]
			if alpha != 1 {
				for i := range bj {
					bj[i] *= alpha
				}
			}
			for k := j + 1; k < n; k++ {
				if a[j*lda+k] == 0 {
					continue
				}
				axpySubUnitary(a[j*lda+k], b[k*ldb:k*ldb+m], bj)
			}
			if nonUnit {
				t := 1 / a[j*lda+j]
				for i := range bj {
					bj[i] *= t
				}
			}
		}
	case side == Right && trans == Trans && uplo == Upper:
		for k := n - 1; k >= 0; k-- {
			ak := a[k*lda:]
			bk := b[k*ldb : k*ldb+m]
			if nonUnit {
				t := 1 / ak[k]
				for i := range bk {
					bk[i] *= t
				}
			}
			for j := 0; j < k; j++ {
				if ak[j] == 0 {
					continue
				}
				axpySubUnitary(ak[j], bk, b[j*ldb:j*ldb+m])
			}
			if alpha != 1 {
				for i := range bk {
					bk[i] *= alpha
				}
			}
		}
	default: // Right, Trans, Lower
		for k := 0; k < n; k++ {
			ak := a[k*lda:]
			bk := b[k*ldb : k*ldb+m]
			if nonUnit {
				t := 1 / ak[k]
				for i := range bk {
					bk[i] *= t
				}
			}
			for j := k + 1; j < n; j++ {
				if ak[j] == 0 {
					continue
				}
				axpySubUnitary(ak[j], bk, b[j*ldb:j*ldb+m])
			}
			if alpha != 1 {
				for i := range bk {
					bk[i] *= alpha
				}
			}
		}
	}
}
