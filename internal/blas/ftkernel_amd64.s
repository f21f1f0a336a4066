#include "textflag.h"
#include "kernels_amd64.h"

// AVX2 kernels of the fused-ABFT routines (dmr.go, ftgemm.go, colsums.go).
// Only used when cpuSupportsAVX2FMA() reports true. Go assembler operand
// order is (src2, src1, dst). macroStripPreAVX builds its tiles from the
// macros of kernels_amd64.h that microKernelAVX is built from.

// COL_PTRS points R9, R10 and R11 at the three columns after the one at SI,
// R8 holding the column stride in elements; it leaves the stride in bytes.
#define COL_PTRS \
	SHLQ $3, R8 \
	LEAQ (SI)(R8*1), R9 \
	LEAQ (R9)(R8*1), R10 \
	LEAQ (R10)(R8*1), R11

// ADVANCE6 moves the four column pointers and the two output pointers DI
// and DX on by n bytes.
#define ADVANCE6(n) \
	ADDQ $n, SI \
	ADDQ $n, R9 \
	ADDQ $n, R10 \
	ADDQ $n, R11 \
	ADDQ $n, DI \
	ADDQ $n, DX

// The DMR column steps at 8, 4 and 1 rows: the column at p times t (the
// column's Y0..Y3 or X0..X3) into the primary and into the shadow chain,
// one multiply and one add each, the product the add's first source.
// y0/s0 (and y1/s1, rows 4-7) are the values the products are added to:
// y and s in memory for the first column, the running sums after it.
// Y4/Y6 hold primary rows 0-3/4-7, Y5/Y7 shadow rows 0-3/4-7.
#define DMR_COL8(p, t, y0, s0, y1, s1) \
	VMOVUPD (p), Y8 \
	VMOVUPD 32(p), Y9 \
	VMULPD  t, Y8, Y10 \
	VMULPD  t, Y8, Y8 \
	VMULPD  t, Y9, Y11 \
	VMULPD  t, Y9, Y9 \
	VADDPD  y0, Y10, Y4 \
	VADDPD  s0, Y8, Y5 \
	VADDPD  y1, Y11, Y6 \
	VADDPD  s1, Y9, Y7

#define DMR_COL4(p, t, y0, s0) \
	VMOVUPD (p), Y8 \
	VMULPD  t, Y8, Y10 \
	VMULPD  t, Y8, Y8 \
	VADDPD  y0, Y10, Y4 \
	VADDPD  s0, Y8, Y5

#define DMR_COL1(p, t, y0, s0) \
	VMOVSD (p), X8 \
	VMULSD t, X8, X10 \
	VMULSD t, X8, X8 \
	VADDSD y0, X10, X4 \
	VADDSD s0, X8, X5

// func gemvDMR4AVX(t *[4]float64, a []float64, lda int, y, s []float64)
//
// Applies four columns of a NoTrans Dgemv to the primary y and to the
// shadow s in one pass: for each row i < len(y) and column c = 0..3 in
// order, y[i] = a[c*lda+i]*t[c] + y[i], and the same into s[i]. Each
// element of A is loaded once and feeds two chains; each chain does its
// own multiply then add — never FMA, never a shared product — with the
// operand order of axpyAVX (A the first source of the multiply, the
// product the first source of the add), so both outputs are bitwise what
// four axpyUnitary calls would leave.
//
// The main loop moves 8 rows (two YMM vectors per column) per iteration,
// then 4 rows, then a scalar tail of up to three rows.
TEXT ·gemvDMR4AVX(SB), NOSPLIT, $0-88
	MOVQ         t+0(FP), AX
	VBROADCASTSD (AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	MOVQ         a_base+8(FP), SI
	MOVQ         lda+32(FP), R8
	COL_PTRS
	MOVQ         y_base+40(FP), DI
	MOVQ         y_len+48(FP), CX
	MOVQ         s_base+64(FP), DX

	MOVQ CX, BX
	SHRQ $3, BX
	JZ   dmr4

dmr8:
	DMR_COL8(SI, Y0, (DI), (DX), 32(DI), 32(DX))
	DMR_COL8(R9, Y1, Y4, Y5, Y6, Y7)
	DMR_COL8(R10, Y2, Y4, Y5, Y6, Y7)
	DMR_COL8(R11, Y3, Y4, Y5, Y6, Y7)
	VMOVUPD Y4, (DI)
	VMOVUPD Y6, 32(DI)
	VMOVUPD Y5, (DX)
	VMOVUPD Y7, 32(DX)
	ADVANCE6(64)
	DECQ BX
	JNZ  dmr8

dmr4:
	TESTQ $4, CX
	JZ    dmr1
	DMR_COL4(SI, Y0, (DI), (DX))
	DMR_COL4(R9, Y1, Y4, Y5)
	DMR_COL4(R10, Y2, Y4, Y5)
	DMR_COL4(R11, Y3, Y4, Y5)
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (DX)
	ADVANCE6(32)

dmr1:
	ANDQ $3, CX
	JZ   dmrdone

dmr1loop:
	DMR_COL1(SI, X0, (DI), (DX))
	DMR_COL1(R9, X1, X4, X5)
	DMR_COL1(R10, X2, X4, X5)
	DMR_COL1(R11, X3, X4, X5)
	VMOVSD X4, (DI)
	VMOVSD X5, (DX)
	ADVANCE6(8)
	DECQ CX
	JNZ  dmr1loop

dmrdone:
	VZEROUPPER
	RET

// ABS_MASK sets r to the |·| mask: every bit but the sign.
#define ABS_MASK(r) \
	VPCMPEQQ r, r, r \
	VPSRLQ   $1, r, r

// LANE_SUMS leaves in t2 the lane sums of a, b, c and d: t0 = [a.l0+a.l1,
// b.l0+b.l1, a.l2+a.l3, b.l2+b.l3], t1 the same for c and d, and the lane
// swap into t2/t3 and one add give [Σa, Σb, Σc, Σd].
#define LANE_SUMS(a, b, c, d, t0, t1, t2, t3) \
	VHADDPD    b, a, t0 \
	VHADDPD    d, c, t1 \
	VPERM2F128 $0x20, t1, t0, t2 \
	VPERM2F128 $0x31, t1, t0, t3 \
	VADDPD     t3, t2, t2

// SUMS4 adds the four columns Y8..Y11 into the column partials a0..a3 and
// their row sum ((v0+v1)+v2)+v3, through t, into the vector at dst.
#define SUMS4(a0, a1, a2, a3, t, dst) \
	VADDPD  Y8, a0, a0 \
	VADDPD  Y9, a1, a1 \
	VADDPD  Y10, a2, a2 \
	VADDPD  Y11, a3, a3 \
	VADDPD  Y9, Y8, t \
	VADDPD  Y10, t, t \
	VADDPD  Y11, t, t \
	VADDPD  (dst), t, t \
	VMOVUPD t, (dst)

// func ftSums4AVX(c []float64, ldc int, row, rowAbs []float64, sums *[8]float64)
//
// The checksum pass over four columns of a C tile, rows [0, len(row)),
// where len(row) is a multiple of 4: row[i] += v0+v1+v2+v3 and
// rowAbs[i] += |v0|+|v1|+|v2|+|v3| in that order, per lane, as the scalar
// loop does; sums[0:4] receives each column's sum and sums[4:8] its |·|
// sum. The column sums accumulate one partial per lane (rows i ≡ lane
// mod 4) and are combined pairwise at the end — a regrouping of checksum
// additions only, which the comparison tolerance absorbs.
TEXT ·ftSums4AVX(SB), NOSPLIT, $0-88
	ABS_MASK(Y15)
	TILE_CLEAR
	MOVQ c_base+0(FP), SI
	MOVQ ldc+24(FP), R8
	COL_PTRS
	MOVQ row_base+32(FP), DI
	MOVQ row_len+40(FP), CX
	MOVQ rowAbs_base+56(FP), DX
	SHRQ $2, CX
	JZ   sumsreduce

sumsloop:
	VMOVUPD (SI), Y8
	VMOVUPD (R9), Y9
	VMOVUPD (R10), Y10
	VMOVUPD (R11), Y11
	SUMS4(Y0, Y1, Y2, Y3, Y12, DI)
	VANDPD  Y15, Y8, Y8
	VANDPD  Y15, Y9, Y9
	VANDPD  Y15, Y10, Y10
	VANDPD  Y15, Y11, Y11
	SUMS4(Y4, Y5, Y6, Y7, Y13, DX)
	ADVANCE6(32)
	DECQ CX
	JNZ  sumsloop

sumsreduce:
	MOVQ    sums+80(FP), AX
	LANE_SUMS(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	VMOVUPD Y10, (AX)
	LANE_SUMS(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	VMOVUPD Y10, 32(AX)
	VZEROUPPER
	RET

// func ftPredictAVX(kc int, alpha float64, panels, s, out []float64)
//
// The checksum predictions of the fused Dgemm: for each packed 4-lane
// micro-panel i of panels (kc k steps of 4 values each, len(out)/4 of
// them), out[4i:4i+4] += alpha · Σ_p panels[i·4kc + 4p : +4] · s[p]. Every
// lane of the one FMA per k step is a useful prediction. The k loop keeps
// four accumulators (k steps ≡ 0..3 mod 4), summed pairwise at the end.
TEXT ·ftPredictAVX(SB), NOSPLIT, $0-88
	MOVQ         kc+0(FP), CX
	VBROADCASTSD alpha+8(FP), Y15
	MOVQ         panels_base+16(FP), SI
	MOVQ         s_base+40(FP), DX
	MOVQ         out_base+64(FP), DI
	MOVQ         out_len+72(FP), BX
	SHRQ         $2, BX
	JZ           predictdone

predictpanel:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   DX, R8
	MOVQ   CX, R9
	SHRQ   $2, R9
	JZ     predicttail

predict4:
	VBROADCASTSD (R8), Y4
	VFMADD231PD  (SI), Y4, Y0
	VBROADCASTSD 8(R8), Y5
	VFMADD231PD  32(SI), Y5, Y1
	VBROADCASTSD 16(R8), Y6
	VFMADD231PD  64(SI), Y6, Y2
	VBROADCASTSD 24(R8), Y7
	VFMADD231PD  96(SI), Y7, Y3
	ADDQ         $128, SI
	ADDQ         $32, R8
	DECQ         R9
	JNZ          predict4

predicttail:
	MOVQ CX, R9
	ANDQ $3, R9
	JZ   predictstore

predict1:
	VBROADCASTSD (R8), Y4
	VFMADD231PD  (SI), Y4, Y0
	ADDQ         $32, SI
	ADDQ         $8, R8
	DECQ         R9
	JNZ          predict1

predictstore:
	VADDPD      Y1, Y0, Y0
	VADDPD      Y3, Y2, Y2
	VADDPD      Y2, Y0, Y0
	VMOVUPD     (DI), Y8
	VFMADD231PD Y0, Y15, Y8
	VMOVUPD     Y8, (DI)
	ADDQ        $32, DI
	DECQ        BX
	JNZ         predictpanel

predictdone:
	VZEROUPPER
	RET

// func sumAVX(x []float64) float64
//
// The sum of x in the order sumGo spells out: sixteen accumulators (four
// YMM vectors) over blocks of 16, then 4-element steps into the first
// vector, a fixed reduction tree over the lanes, and the last len(x) mod 4
// elements added in order.
TEXT ·sumAVX(SB), NOSPLIT, $0-32
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   CX, BX
	SHRQ   $4, BX
	JZ     sum4

sum16:
	VADDPD (SI), Y0, Y0
	VADDPD 32(SI), Y1, Y1
	VADDPD 64(SI), Y2, Y2
	VADDPD 96(SI), Y3, Y3
	ADDQ   $128, SI
	DECQ   BX
	JNZ    sum16

sum4:
	MOVQ CX, BX
	ANDQ $15, BX
	SHRQ $2, BX
	JZ   sumtree

sum4loop:
	VADDPD (SI), Y0, Y0
	ADDQ   $32, SI
	DECQ   BX
	JNZ    sum4loop

sumtree:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VHADDPD      X0, X0, X0
	ANDQ         $3, CX
	JZ           sumdone

sum1:
	VADDSD (SI), X0, X0
	ADDQ   $8, SI
	DECQ   CX
	JNZ    sum1

sumdone:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// TILE_SUMS adds the row sums ((v0+v1)+(v2+v3)) of the tile columns
// Y10..Y13 into the vector at dst and their column sums into colacc.
#define TILE_SUMS(dst, colacc) \
	VADDPD  Y11, Y10, Y0 \
	VADDPD  Y13, Y12, Y1 \
	VADDPD  Y1, Y0, Y0 \
	VADDPD  (dst), Y0, Y0 \
	VMOVUPD Y0, (dst) \
	LANE_SUMS(Y10, Y11, Y12, Y13, Y0, Y1, Y2, Y3) \
	VADDPD  Y2, colacc, colacc

// func macroStripPreAVX(kc int, alpha float64, pa, pb, c []float64, ldc int, row, rowAbs, col, colAbs []float64)
//
// The micro-kernels of one 4-column strip of the fused Dgemm's first KC
// chunk, over len(row)/4 whole 4×4 tiles (tile t: rows 4t..4t+3 of c,
// packed A micro-panel t of pa), with the sums of beta·C folded into each
// tile's C load: the tile's values before the update, already in
// registers for the write-back, are added into the checksum expectations.
// row[4t:4t+4] and rowAbs[4t:4t+4] receive each tile's row sums and |·|
// row sums, ((v0+v1)+(v2+v3)) over its four columns; the strip's column
// sums and |·| column sums accumulate in Y14/Y15 across the tiles, each
// tile adding ((r0+r1)+(r2+r3)) over its four rows, and are added into
// col[0:4] and colAbs[0:4] at the end. Each tile's update is bitwise
// microKernelAVX's: the same TILE_CLEAR, TILE_KLOOP and TILE_FOLD, and the
// same write-back FMA.
TEXT ·macroStripPreAVX(SB), NOSPLIT, $0-192
	MOVQ   kc+0(FP), CX
	MOVQ   pa_base+16(FP), SI
	MOVQ   c_base+64(FP), DX
	MOVQ   ldc+88(FP), R8
	SHLQ   $3, R8
	MOVQ   row_base+96(FP), AX
	MOVQ   row_len+104(FP), R13
	MOVQ   rowAbs_base+120(FP), BX
	SHRQ   $2, R13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	TESTQ  R13, R13
	JZ     stripdone

striptile:
	MOVQ pb_base+40(FP), DI
	TILE_CLEAR
	TILE_KLOOP(stripstore)
	ADDQ $32, SI

stripstore:
	// SI now points at the next tile's packed A micro-panel.
	TILE_FOLD

	// Y10..Y13: the tile's columns before the update; write back
	// C(:,j) = alpha*acc_j + C(:,j) exactly as microKernelAVX does.
	VBROADCASTSD alpha+8(FP), Y9
	LEAQ         (DX)(R8*2), R10
	VMOVUPD      (DX), Y10
	VMOVUPD      (DX)(R8*1), Y11
	VMOVUPD      (R10), Y12
	VMOVUPD      (R10)(R8*1), Y13
	VMOVAPD      Y10, Y4
	VFMADD231PD  Y0, Y9, Y4
	VMOVUPD      Y4, (DX)
	VMOVAPD      Y11, Y5
	VFMADD231PD  Y1, Y9, Y5
	VMOVUPD      Y5, (DX)(R8*1)
	VMOVAPD      Y12, Y6
	VFMADD231PD  Y2, Y9, Y6
	VMOVUPD      Y6, (R10)
	VMOVAPD      Y13, Y7
	VFMADD231PD  Y3, Y9, Y7
	VMOVUPD      Y7, (R10)(R8*1)

	// Sums of the old values, then of their magnitudes.
	TILE_SUMS(AX, Y14)
	ABS_MASK(Y9)
	VANDPD Y9, Y10, Y10
	VANDPD Y9, Y11, Y11
	VANDPD Y9, Y12, Y12
	VANDPD Y9, Y13, Y13
	TILE_SUMS(BX, Y15)

	ADDQ $32, DX
	ADDQ $32, AX
	ADDQ $32, BX
	DECQ R13
	JNZ  striptile

stripdone:
	MOVQ    col_base+144(FP), R11
	MOVQ    colAbs_base+168(FP), R12
	VADDPD  (R11), Y14, Y14
	VMOVUPD Y14, (R11)
	VADDPD  (R12), Y15, Y15
	VMOVUPD Y15, (R12)
	VZEROUPPER
	RET
