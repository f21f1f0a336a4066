package blas

// Register-blocked micro-kernel of the packed Dgemm. One kernel serves all
// four transpose cases because packA/packB already present op(A) and op(B)
// in a canonical k-major layout.
//
// Blocking parameters, chosen so one packed k step of A is exactly one
// 256-bit vector for the AVX2 kernel (microkernel_amd64.s) while the
// portable Go kernel still fits its accumulators in the 15 usable amd64
// XMM registers:
//
//	MR×NR = 4×4   one 4×4 tile of C per micro-kernel call
//	MC×KC         the packed A block (256 KiB) targets L2
//	KC×NR         the packed B micro-panel (8 KiB) stays L1-resident
//	NC            bounds the packed B block (512 KiB, L3), packed once
//	              per KC chunk and shared by all work items of the round
//
// MC and NC are multiples of MR and NR so pack buffers never overflow.
const (
	gemmMR = 4
	gemmNR = 4
	gemmMC = 128
	gemmKC = 256
	gemmNC = 256
)

// microKernel computes the full MR×NR tile update
//
//	C(0:4, 0:4) += alpha · Σ_p pa(:,p)·pb(p,:)ᵀ
//
// over kc packed steps, with c addressing the tile's top-left element and
// ldc its column stride. beta has already been applied by the caller.
// Requires kc >= 1 (the macro-kernel never runs a zero-length k block).
func microKernel(kc int, alpha float64, pa, pb, c []float64, ldc int) {
	if useAVXKernel {
		microKernelAVX(kc, alpha, pa, pb, c, ldc)
		return
	}
	microKernelGo(kc, alpha, pa, pb, c, ldc)
}

// microKernelGo is the portable tile kernel: two 4×2 half-tile passes over
// the packed panels. A 4×2 pass keeps 8 accumulators + 6 operands live —
// within the 15 usable XMM registers — where a single 4×4 pass would spill
// half its accumulators to the stack every iteration.
func microKernelGo(kc int, alpha float64, pa, pb, c []float64, ldc int) {
	microKernelGoHalf(kc, alpha, pa, pb, c, ldc)
	microKernelGoHalf(kc, alpha, pa, pb[2:], c[2*ldc:], ldc)
}

// microKernelGoHalf accumulates the 4×2 half tile c(0:4, 0:2) using packed B
// values pb[4p] and pb[4p+1] (the caller offsets pb to select the column
// pair). Requires kc >= 1.
func microKernelGoHalf(kc int, alpha float64, pa, pb, c []float64, ldc int) {
	var (
		c00, c10, c20, c30 float64
		c01, c11, c21, c31 float64
	)
	for {
		a3, a0, a1, a2 := pa[3], pa[0], pa[1], pa[2]
		b0, b1 := pb[0], pb[1]
		c00 += a0 * b0
		c10 += a1 * b0
		c20 += a2 * b0
		c30 += a3 * b0
		c01 += a0 * b1
		c11 += a1 * b1
		c21 += a2 * b1
		c31 += a3 * b1
		kc--
		if kc == 0 {
			break
		}
		pa = pa[4:]
		pb = pb[4:]
	}
	d0 := c[0:4]
	d1 := c[ldc : ldc+4]
	d0[0] += alpha * c00
	d0[1] += alpha * c10
	d0[2] += alpha * c20
	d0[3] += alpha * c30
	d1[0] += alpha * c01
	d1[1] += alpha * c11
	d1[2] += alpha * c21
	d1[3] += alpha * c31
}

// microKernelEdge is the masked path for partial tiles at the m/n fringes:
// it runs the full kernel into a zeroed MR×NR scratch tile (the packed
// panels are zero-padded, so the extra lanes contribute nothing) and stores
// back only the mr×nr valid elements. The scratch tile holds alpha·acc
// because microKernel applies alpha against the zero-initialized C.
func microKernelEdge(kc int, alpha float64, pa, pb, c []float64, ldc, mr, nr int) {
	var t [gemmMR * gemmNR]float64
	microKernel(kc, alpha, pa, pb, t[:], gemmMR)
	for j := 0; j < nr; j++ {
		col := c[j*ldc:]
		for i := 0; i < mr; i++ {
			col[i] += t[j*gemmMR+i]
		}
	}
}

// macroKernel sweeps the packed mc×kc A block against the packed kc×nc B
// block, one NR-column strip at a time.
func macroKernel(mc, nc, kc int, alpha float64, bufA, bufB []float64, c []float64, ldc int) {
	for jr := 0; jr < nc; jr += gemmNR {
		macroStrip(mc, kc, min(gemmNR, nc-jr), alpha, bufA, bufB[(jr/gemmNR)*kc*gemmNR:], c[jr*ldc:], ldc)
	}
}

// macroStrip runs the micro-kernels of one strip: every packed A
// micro-panel against the packed B micro-panel pb, into the mc×nr strip c
// (nr ≤ NR). Interior tiles update C in place; fringe tiles take the
// masked path.
func macroStrip(mc, kc, nr int, alpha float64, bufA, pb, c []float64, ldc int) {
	for ir := 0; ir < mc; ir += gemmMR {
		mr := min(gemmMR, mc-ir)
		pa := bufA[(ir/gemmMR)*kc*gemmMR:]
		if mr == gemmMR && nr == gemmNR {
			microKernel(kc, alpha, pa, pb, c[ir:], ldc)
		} else {
			microKernelEdge(kc, alpha, pa, pb, c[ir:], ldc, mr, nr)
		}
	}
}
