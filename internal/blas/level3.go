package blas

// Level-3 BLAS. Dgemm is a BLIS-style cache-blocked kernel: MC/KC/NC
// blocking over packed panels of op(A) and op(B) (pack.go), a
// register-blocked MR×NR micro-kernel (microkernel.go), and a 2-D shard of
// the tile grid across the shared worker pool (pool.go) for large
// problems. Dtrmm dispatches onto the same pool — by columns when the
// triangular factor is on the left, by rows when it is on the right.

// Parallelism thresholds in flops (2mnk for Dgemm). Below them the shard
// bookkeeping dominates and the routines stay on their serial path. They
// are variables so the property tests can force the pool path at tiny
// sizes.
var (
	parallelGemmThreshold = 1 << 21
	parallelTrmmThreshold = 1 << 21
)

// Dgemm computes C := alpha*op(A)*op(B) + beta*C where op(A) is m×k and
// op(B) is k×n.
//
// The computation is tiled over an ⌈m/MC⌉ × ⌈n/NC⌉ grid of C blocks; each
// tile packs its own A/B panels (recycled through pools) and runs the
// micro-kernel over them. Above parallelGemmThreshold the tile grid is
// sharded across the worker pool in both dimensions, so tall-skinny panel
// updates (m large, n small) parallelize as well as square products.
// Results are bitwise identical for every SetMaxProcs value.
func Dgemm(tA, tB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	ar, ac := m, k
	if tA == Trans {
		ar, ac = k, m
	}
	br, bc := k, n
	if tB == Trans {
		br, bc = n, k
	}
	checkMatrix("Dgemm", ar, ac, lda, a)
	checkMatrix("Dgemm", br, bc, ldb, b)
	checkMatrix("Dgemm", m, n, ldc, c)
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 || k == 0 {
		scaleCols(m, n, beta, c, ldc, 0, n)
		return
	}
	if done := opTimer("gemm", 2*float64(m)*float64(n)*float64(k)); done != nil {
		defer done()
	}
	mBlocks := (m + gemmMC - 1) / gemmMC
	nBlocks := (n + gemmNC - 1) / gemmNC
	tile := func(t int) {
		ic := (t % mBlocks) * gemmMC
		jc := (t / mBlocks) * gemmNC
		gemmTile(tA, tB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, ic, jc)
	}
	tasks := mBlocks * nBlocks
	if procs() > 1 && tasks > 1 && 2*m*n*k >= parallelGemmThreshold {
		ParallelFor(tasks, tile)
		return
	}
	for t := 0; t < tasks; t++ {
		tile(t)
	}
}

// gemmTile computes the MC×NC (or smaller, at the fringe) block of C with
// top-left element (ic, jc): it applies beta to the block once, then
// accumulates alpha·op(A)·op(B) over KC-deep packed panel pairs. Tiles are
// disjoint in C, so any number of them may run concurrently.
func gemmTile(tA, tB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc, ic, jc int) {
	mc := min(gemmMC, m-ic)
	nc := min(gemmNC, n-jc)
	ct := c[jc*ldc+ic:]
	scaleBlock(mc, nc, beta, ct, ldc)
	bufA := packAPool.Get().(*[]float64)
	bufB := packBPool.Get().(*[]float64)
	for pc := 0; pc < k; pc += gemmKC {
		kc := min(gemmKC, k-pc)
		packB(tB, b, ldb, pc, jc, kc, nc, *bufB)
		packA(tA, a, lda, ic, pc, mc, kc, *bufA)
		macroKernel(mc, nc, kc, alpha, *bufA, *bufB, ct, ldc)
	}
	packAPool.Put(bufA)
	packBPool.Put(bufB)
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
	if alpha == 0 || k == 0 {
		scaleCols(m, n, beta, c, ldc, 0, n)
		return
	}
	naiveGemmCols(tA, tB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, 0, n)
}

// naiveGemmCols computes columns [j0, j1) of the Dgemm update cache-naively.
func naiveGemmCols(tA, tB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int, j0, j1 int) {
	scaleCols(m, n, beta, c, ldc, j0, j1)
	switch {
	case tA == NoTrans && tB == NoTrans:
		// C(:,j) += alpha * Σ_l B(l,j) * A(:,l)
		for j := j0; j < j1; j++ {
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
		for j := j0; j < j1; j++ {
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
		for j := j0; j < j1; j++ {
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
		for j := j0; j < j1; j++ {
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

func scaleCols(m, n int, beta float64, c []float64, ldc, j0, j1 int) {
	if beta == 1 {
		return
	}
	for j := j0; j < j1; j++ {
		cc := c[j*ldc : j*ldc+m]
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
		scaleCols(m, n, 0, b, ldb, 0, n)
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
		scaleCols(m, n, 0, b, ldb, 0, n)
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
