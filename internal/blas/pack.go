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
// MR = NR = 4, so both are the same 4-lane micro-panel and one packer,
// packPanels, writes them. Only the source layout differs: a panel's four
// lanes are either adjacent in memory (op(A) NoTrans, op(B) Trans) or
// four streams along k (op(A) Trans, op(B) NoTrans).
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
// NoTrans and a[i*lda+l] for Trans. A non-nil sum receives the block's
// column sums (see packPanels), the checksum vector DgemmFT predicts its
// row sums from (ftgemm.go).
func packA(tA Transpose, a []float64, lda, i0, p0, mc, kc int, buf, sum []float64) {
	if tA == NoTrans {
		packPanels(a, 1, lda, i0, p0, mc, kc, buf, sum)
	} else {
		packPanels(a, lda, 1, i0, p0, mc, kc, buf, sum)
	}
}

// packB packs the kc×nc block of op(B) with top-left element (p0, j0) —
// indices in op(B) coordinates — into buf. op(B)[l,j] is b[j*ldb+l] for
// NoTrans and b[l*ldb+j] for Trans. A non-nil sum receives the block's
// row sums (see packPanels), the checksum vector DgemmFT predicts its
// column sums from (ftgemm.go).
func packB(tB Transpose, b []float64, ldb, p0, j0, kc, nc int, buf, sum []float64) {
	if tB == NoTrans {
		packPanels(b, ldb, 1, j0, p0, nc, kc, buf, sum)
	} else {
		packPanels(b, 1, ldb, j0, p0, nc, kc, buf, sum)
	}
}

// packPanels packs w lanes × kc k steps of x into ⌈w/4⌉ k-major 4-lane
// micro-panels in buf, where lane q of step p is x[(q0+q)*qs+(p0+p)*ps]:
// qs == 1 is the adjacent-lanes layout, ps == 1 the four-streams one.
// A full panel is one pass that reads its source in order and writes buf
// in order; a fringe panel zero-pads its missing lanes.
//
// A non-nil sum (len ≥ kc) is overwritten with the lane sums per k step:
// sum[p] = Σ over panels, in order, of that panel's lanes added in lane
// order. DgemmFT's checksum encode rides the copy this way, from values
// already in registers, at no extra memory traffic.
func packPanels(x []float64, qs, ps, q0, p0, w, kc int, buf, sum []float64) {
	if sum != nil {
		clear(sum[:kc])
	}
	for q := 0; q < w; q += 4 {
		dst := buf[q*kc : q*kc+4*kc]
		o := (q0+q)*qs + p0*ps
		switch lanes := w - q; {
		case lanes < 4: // a fringe panel: the lanes past its edge are zero padding
			for p := 0; p < kc; p++ {
				d := dst[4*p : 4*p+4]
				s := 0.0
				for r := 0; r < lanes; r++ {
					v := x[o+r*qs+p*ps]
					d[r] = v
					s += v
				}
				clear(d[lanes:])
				if sum != nil {
					sum[p] += s
				}
			}
		case qs == 1:
			for p := 0; p < kc; p++ {
				src := x[o+p*ps : o+p*ps+4]
				v0, v1, v2, v3 := src[0], src[1], src[2], src[3]
				d := dst[4*p : 4*p+4]
				d[0], d[1], d[2], d[3] = v0, v1, v2, v3
				if sum != nil {
					sum[p] += v0 + v1 + v2 + v3
				}
			}
		default:
			s0 := x[o : o+kc]
			s1 := x[o+qs : o+qs+kc]
			s2 := x[o+2*qs : o+2*qs+kc]
			s3 := x[o+3*qs : o+3*qs+kc]
			for p := range s0 {
				v0, v1, v2, v3 := s0[p], s1[p], s2[p], s3[p]
				d := dst[4*p : 4*p+4]
				d[0], d[1], d[2], d[3] = v0, v1, v2, v3
				if sum != nil {
					sum[p] += v0 + v1 + v2 + v3
				}
			}
		}
	}
}
