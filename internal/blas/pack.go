package blas

import "sync"

// Panel packing for the blocked Dgemm (BLIS-style). The macro-kernel only
// ever sees op(A) and op(B) through these packed buffers, so all four
// transpose cases are folded into the copy and the micro-kernel is unique.
//
// Layout:
//
//   - packA writes an mc×kc block of op(A) as ⌈mc/gemmMR⌉ consecutive
//     micro-panels; micro-panel i holds rows [i·MR, i·MR+MR) in k-major
//     order (MR contiguous row values per k step). Short edge panels are
//     zero-padded to MR so the micro-kernel never branches on m.
//   - packB writes a kc×nc block of op(B) as ⌈nc/gemmNR⌉ micro-panels;
//     micro-panel j holds columns [j·NR, j·NR+NR) in k-major order (NR
//     contiguous column values per k step), zero-padded to NR.
//
// Buffers are recycled through sync.Pools sized for the worst case
// (MC·KC and NC·KC doubles), so steady-state Dgemm does no allocation.

var packAPool = sync.Pool{New: func() any {
	buf := make([]float64, gemmMC*gemmKC)
	return &buf
}}

var packBPool = sync.Pool{New: func() any {
	buf := make([]float64, gemmNC*gemmKC)
	return &buf
}}

// packA packs the mc×kc block of op(A) with top-left element (i0, p0) —
// indices in op(A) coordinates — into buf. op(A)[i,l] is a[l*lda+i] for
// NoTrans and a[i*lda+l] for Trans.
func packA(tA Transpose, a []float64, lda, i0, p0, mc, kc int, buf []float64) {
	for ir, pi := 0, 0; ir < mc; ir, pi = ir+gemmMR, pi+1 {
		rows := mc - ir
		if rows > gemmMR {
			rows = gemmMR
		}
		base := pi * kc * gemmMR
		if tA == NoTrans {
			for p := 0; p < kc; p++ {
				src := a[(p0+p)*lda+i0+ir:]
				dst := buf[base+p*gemmMR : base+p*gemmMR+gemmMR]
				for r := 0; r < rows; r++ {
					dst[r] = src[r]
				}
				for r := rows; r < gemmMR; r++ {
					dst[r] = 0
				}
			}
		} else {
			for p := 0; p < kc; p++ {
				dst := buf[base+p*gemmMR : base+p*gemmMR+gemmMR]
				for r := 0; r < rows; r++ {
					dst[r] = a[(i0+ir+r)*lda+p0+p]
				}
				for r := rows; r < gemmMR; r++ {
					dst[r] = 0
				}
			}
		}
	}
}

// packAFT packs exactly like packA — identical stores in identical order,
// so the data path of the fused-ABFT Dgemm stays bitwise equal to the
// plain kernel — while additionally accumulating the column sums of the
// packed block into sum: after the call, sum[p] holds Σ_i op(A)[i0+i, p0+p]
// for each k step p < kc, the checksum vector ftPredict runs against the
// packed B micro-panels (ftgemm.go).
func packAFT(tA Transpose, a []float64, lda, i0, p0, mc, kc int, buf, sum []float64) {
	clear(sum[:kc])
	for ir, pi := 0, 0; ir < mc; ir, pi = ir+gemmMR, pi+1 {
		rows := mc - ir
		if rows > gemmMR {
			rows = gemmMR
		}
		base := pi * kc * gemmMR
		if tA == NoTrans {
			for p := 0; p < kc; p++ {
				src := a[(p0+p)*lda+i0+ir:]
				dst := buf[base+p*gemmMR : base+p*gemmMR+gemmMR]
				s := 0.0
				for r := 0; r < rows; r++ {
					dst[r] = src[r]
					s += src[r]
				}
				for r := rows; r < gemmMR; r++ {
					dst[r] = 0
				}
				sum[p] += s
			}
		} else {
			for p := 0; p < kc; p++ {
				dst := buf[base+p*gemmMR : base+p*gemmMR+gemmMR]
				s := 0.0
				for r := 0; r < rows; r++ {
					v := a[(i0+ir+r)*lda+p0+p]
					dst[r] = v
					s += v
				}
				for r := rows; r < gemmMR; r++ {
					dst[r] = 0
				}
				sum[p] += s
			}
		}
	}
}

// packB packs the kc×nc block of op(B) with top-left element (p0, j0) —
// indices in op(B) coordinates — into buf. op(B)[l,j] is b[j*ldb+l] for
// NoTrans and b[l*ldb+j] for Trans.
func packB(tB Transpose, b []float64, ldb, p0, j0, kc, nc int, buf []float64) {
	for jr, pj := 0, 0; jr < nc; jr, pj = jr+gemmNR, pj+1 {
		cols := nc - jr
		if cols > gemmNR {
			cols = gemmNR
		}
		base := pj * kc * gemmNR
		if tB == NoTrans {
			for c := 0; c < cols; c++ {
				src := b[(j0+jr+c)*ldb+p0:]
				for p := 0; p < kc; p++ {
					buf[base+p*gemmNR+c] = src[p]
				}
			}
			for c := cols; c < gemmNR; c++ {
				for p := 0; p < kc; p++ {
					buf[base+p*gemmNR+c] = 0
				}
			}
		} else {
			for p := 0; p < kc; p++ {
				src := b[(p0+p)*ldb+j0+jr:]
				dst := buf[base+p*gemmNR : base+p*gemmNR+gemmNR]
				for c := 0; c < cols; c++ {
					dst[c] = src[c]
				}
				for c := cols; c < gemmNR; c++ {
					dst[c] = 0
				}
			}
		}
	}
}

// packBFT packs exactly like packB (identical stores, identical order)
// while accumulating the row sums of the packed block into sum: after the
// call, sum[p] holds Σ_j op(B)[p0+p, j0+j] for each k step p < kc, the
// checksum vector ftPredict runs against the packed A micro-panels
// (ftgemm.go).
func packBFT(tB Transpose, b []float64, ldb, p0, j0, kc, nc int, buf, sum []float64) {
	clear(sum[:kc])
	for jr, pj := 0, 0; jr < nc; jr, pj = jr+gemmNR, pj+1 {
		cols := nc - jr
		if cols > gemmNR {
			cols = gemmNR
		}
		base := pj * kc * gemmNR
		if tB == NoTrans {
			// Full micro-panels take a fused single pass: NR sequential
			// source streams interleaved into one sequential write stream,
			// with the row sum folded in from values already in registers.
			// (packB's column-at-a-time scatter walks the 8KB micro-panel
			// NR times; this walks it once, so the accumulation rides along
			// at no extra memory traffic.) Stored values and the c-ascending
			// summation order are identical to the fringe path below.
			if cols == gemmNR && gemmNR == 4 {
				s0 := b[(j0+jr)*ldb+p0:]
				s1 := b[(j0+jr+1)*ldb+p0:]
				s2 := b[(j0+jr+2)*ldb+p0:]
				s3 := b[(j0+jr+3)*ldb+p0:]
				for p := 0; p < kc; p++ {
					v0, v1, v2, v3 := s0[p], s1[p], s2[p], s3[p]
					o := base + p*4
					buf[o] = v0
					buf[o+1] = v1
					buf[o+2] = v2
					buf[o+3] = v3
					sum[p] += v0 + v1 + v2 + v3
				}
				continue
			}
			for c := 0; c < cols; c++ {
				src := b[(j0+jr+c)*ldb+p0:]
				for p := 0; p < kc; p++ {
					buf[base+p*gemmNR+c] = src[p]
				}
			}
			for c := cols; c < gemmNR; c++ {
				for p := 0; p < kc; p++ {
					buf[base+p*gemmNR+c] = 0
				}
			}
			for p := 0; p < kc; p++ {
				s := 0.0
				for _, v := range buf[base+p*gemmNR : base+p*gemmNR+gemmNR] {
					s += v
				}
				sum[p] += s
			}
		} else {
			for p := 0; p < kc; p++ {
				src := b[(p0+p)*ldb+j0+jr:]
				dst := buf[base+p*gemmNR : base+p*gemmNR+gemmNR]
				s := 0.0
				for c := 0; c < cols; c++ {
					dst[c] = src[c]
					s += src[c]
				}
				for c := cols; c < gemmNR; c++ {
					dst[c] = 0
				}
				sum[p] += s
			}
		}
	}
}
