#include "textflag.h"

// AVX2 kernels of the fused-ABFT routines (dmr.go, ftgemm.go, colsums.go).
// Only used when cpuSupportsAVX2FMA() reports true. Go assembler operand
// order is (src2, src1, dst).

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
	SHLQ         $3, R8
	LEAQ         (SI)(R8*1), R9
	LEAQ         (R9)(R8*1), R10
	LEAQ         (R10)(R8*1), R11
	MOVQ         y_base+40(FP), DI
	MOVQ         y_len+48(FP), CX
	MOVQ         s_base+64(FP), DX

	MOVQ CX, BX
	SHRQ $3, BX
	JZ   dmr4

dmr8:
	// Y4/Y6: primary rows 0-3/4-7; Y5/Y7: shadow rows 0-3/4-7.
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VMULPD  Y0, Y8, Y10
	VMULPD  Y0, Y8, Y8
	VMULPD  Y0, Y9, Y11
	VMULPD  Y0, Y9, Y9
	VADDPD  (DI), Y10, Y4
	VADDPD  (DX), Y8, Y5
	VADDPD  32(DI), Y11, Y6
	VADDPD  32(DX), Y9, Y7

	VMOVUPD (R9), Y8
	VMOVUPD 32(R9), Y9
	VMULPD  Y1, Y8, Y10
	VMULPD  Y1, Y8, Y8
	VMULPD  Y1, Y9, Y11
	VMULPD  Y1, Y9, Y9
	VADDPD  Y4, Y10, Y4
	VADDPD  Y5, Y8, Y5
	VADDPD  Y6, Y11, Y6
	VADDPD  Y7, Y9, Y7

	VMOVUPD (R10), Y8
	VMOVUPD 32(R10), Y9
	VMULPD  Y2, Y8, Y10
	VMULPD  Y2, Y8, Y8
	VMULPD  Y2, Y9, Y11
	VMULPD  Y2, Y9, Y9
	VADDPD  Y4, Y10, Y4
	VADDPD  Y5, Y8, Y5
	VADDPD  Y6, Y11, Y6
	VADDPD  Y7, Y9, Y7

	VMOVUPD (R11), Y8
	VMOVUPD 32(R11), Y9
	VMULPD  Y3, Y8, Y10
	VMULPD  Y3, Y8, Y8
	VMULPD  Y3, Y9, Y11
	VMULPD  Y3, Y9, Y9
	VADDPD  Y4, Y10, Y4
	VADDPD  Y5, Y8, Y5
	VADDPD  Y6, Y11, Y6
	VADDPD  Y7, Y9, Y7

	VMOVUPD Y4, (DI)
	VMOVUPD Y6, 32(DI)
	VMOVUPD Y5, (DX)
	VMOVUPD Y7, 32(DX)
	ADDQ    $64, SI
	ADDQ    $64, R9
	ADDQ    $64, R10
	ADDQ    $64, R11
	ADDQ    $64, DI
	ADDQ    $64, DX
	DECQ    BX
	JNZ     dmr8

dmr4:
	TESTQ $4, CX
	JZ    dmr1

	VMOVUPD (SI), Y8
	VMULPD  Y0, Y8, Y10
	VMULPD  Y0, Y8, Y8
	VADDPD  (DI), Y10, Y4
	VADDPD  (DX), Y8, Y5
	VMOVUPD (R9), Y8
	VMULPD  Y1, Y8, Y10
	VMULPD  Y1, Y8, Y8
	VADDPD  Y4, Y10, Y4
	VADDPD  Y5, Y8, Y5
	VMOVUPD (R10), Y8
	VMULPD  Y2, Y8, Y10
	VMULPD  Y2, Y8, Y8
	VADDPD  Y4, Y10, Y4
	VADDPD  Y5, Y8, Y5
	VMOVUPD (R11), Y8
	VMULPD  Y3, Y8, Y10
	VMULPD  Y3, Y8, Y8
	VADDPD  Y4, Y10, Y4
	VADDPD  Y5, Y8, Y5
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (DX)
	ADDQ    $32, SI
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	ADDQ    $32, DI
	ADDQ    $32, DX

dmr1:
	ANDQ $3, CX
	JZ   dmrdone

dmr1loop:
	VMOVSD (SI), X8
	VMULSD X0, X8, X10
	VMULSD X0, X8, X8
	VADDSD (DI), X10, X4
	VADDSD (DX), X8, X5
	VMOVSD (R9), X8
	VMULSD X1, X8, X10
	VMULSD X1, X8, X8
	VADDSD X4, X10, X4
	VADDSD X5, X8, X5
	VMOVSD (R10), X8
	VMULSD X2, X8, X10
	VMULSD X2, X8, X8
	VADDSD X4, X10, X4
	VADDSD X5, X8, X5
	VMOVSD (R11), X8
	VMULSD X3, X8, X10
	VMULSD X3, X8, X8
	VADDSD X4, X10, X4
	VADDSD X5, X8, X5
	VMOVSD X4, (DI)
	VMOVSD X5, (DX)
	ADDQ   $8, SI
	ADDQ   $8, R9
	ADDQ   $8, R10
	ADDQ   $8, R11
	ADDQ   $8, DI
	ADDQ   $8, DX
	DECQ   CX
	JNZ    dmr1loop

dmrdone:
	VZEROUPPER
	RET

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
	VPCMPEQQ Y15, Y15, Y15
	VPSRLQ   $1, Y15, Y15 // |·| mask: every bit but the sign
	VXORPD   Y0, Y0, Y0
	VXORPD   Y1, Y1, Y1
	VXORPD   Y2, Y2, Y2
	VXORPD   Y3, Y3, Y3
	VXORPD   Y4, Y4, Y4
	VXORPD   Y5, Y5, Y5
	VXORPD   Y6, Y6, Y6
	VXORPD   Y7, Y7, Y7
	MOVQ     c_base+0(FP), SI
	MOVQ     ldc+24(FP), R8
	SHLQ     $3, R8
	LEAQ     (SI)(R8*1), R9
	LEAQ     (R9)(R8*1), R10
	LEAQ     (R10)(R8*1), R11
	MOVQ     row_base+32(FP), DI
	MOVQ     row_len+40(FP), CX
	MOVQ     rowAbs_base+56(FP), DX
	SHRQ     $2, CX
	JZ       sumsreduce

sumsloop:
	VMOVUPD (SI), Y8
	VMOVUPD (R9), Y9
	VMOVUPD (R10), Y10
	VMOVUPD (R11), Y11
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VADDPD  Y10, Y2, Y2
	VADDPD  Y11, Y3, Y3
	VADDPD  Y9, Y8, Y12
	VADDPD  Y10, Y12, Y12
	VADDPD  Y11, Y12, Y12
	VADDPD  (DI), Y12, Y12
	VMOVUPD Y12, (DI)
	VANDPD  Y15, Y8, Y8
	VANDPD  Y15, Y9, Y9
	VANDPD  Y15, Y10, Y10
	VANDPD  Y15, Y11, Y11
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VADDPD  Y10, Y6, Y6
	VADDPD  Y11, Y7, Y7
	VADDPD  Y9, Y8, Y13
	VADDPD  Y10, Y13, Y13
	VADDPD  Y11, Y13, Y13
	VADDPD  (DX), Y13, Y13
	VMOVUPD Y13, (DX)
	ADDQ    $32, SI
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	ADDQ    $32, DI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     sumsloop

sumsreduce:
	// Y8 = [s0.l0+s0.l1, s1.l0+s1.l1, s0.l2+s0.l3, s1.l2+s1.l3], Y9 the
	// same for s2, s3; the lane swap and one add give [s0, s1, s2, s3].
	MOVQ       sums+80(FP), AX
	VHADDPD    Y1, Y0, Y8
	VHADDPD    Y3, Y2, Y9
	VPERM2F128 $0x20, Y9, Y8, Y10
	VPERM2F128 $0x31, Y9, Y8, Y11
	VADDPD     Y11, Y10, Y10
	VMOVUPD    Y10, (AX)
	VHADDPD    Y5, Y4, Y8
	VHADDPD    Y7, Y6, Y9
	VPERM2F128 $0x20, Y9, Y8, Y10
	VPERM2F128 $0x31, Y9, Y8, Y11
	VADDPD     Y11, Y10, Y10
	VMOVUPD    Y10, 32(AX)
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
// microKernelAVX's.
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
	MOVQ   pb_base+40(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ CX, R9
	SHRQ $1, R9
	JZ   striptail

striploop:
	VMOVUPD      (SI), Y8
	VBROADCASTSD (DI), Y9
	VFMADD231PD  Y8, Y9, Y0
	VBROADCASTSD 8(DI), Y10
	VFMADD231PD  Y8, Y10, Y1
	VBROADCASTSD 16(DI), Y11
	VFMADD231PD  Y8, Y11, Y2
	VBROADCASTSD 24(DI), Y12
	VFMADD231PD  Y8, Y12, Y3

	VMOVUPD      32(SI), Y13
	VBROADCASTSD 32(DI), Y9
	VFMADD231PD  Y13, Y9, Y4
	VBROADCASTSD 40(DI), Y10
	VFMADD231PD  Y13, Y10, Y5
	VBROADCASTSD 48(DI), Y11
	VFMADD231PD  Y13, Y11, Y6
	VBROADCASTSD 56(DI), Y12
	VFMADD231PD  Y13, Y12, Y7

	ADDQ $64, SI
	ADDQ $64, DI
	DECQ R9
	JNZ  striploop

striptail:
	TESTQ $1, CX
	JZ    stripstore

	VMOVUPD      (SI), Y8
	VBROADCASTSD (DI), Y9
	VFMADD231PD  Y8, Y9, Y0
	VBROADCASTSD 8(DI), Y10
	VFMADD231PD  Y8, Y10, Y1
	VBROADCASTSD 16(DI), Y11
	VFMADD231PD  Y8, Y11, Y2
	VBROADCASTSD 24(DI), Y12
	VFMADD231PD  Y8, Y12, Y3
	ADDQ         $32, SI

stripstore:
	// SI now points at the next tile's packed A micro-panel.
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

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

	// Sums of the old values, then of their magnitudes. The column sums:
	// [c0.r0+c0.r1, c1.r0+c1.r1, c0.r2+c0.r3, c1.r2+c1.r3] and the same for
	// c2, c3; the lane swap and one add give the four column sums.
	VADDPD     Y11, Y10, Y0
	VADDPD     Y13, Y12, Y1
	VADDPD     Y1, Y0, Y0
	VADDPD     (AX), Y0, Y0
	VMOVUPD    Y0, (AX)
	VHADDPD    Y11, Y10, Y0
	VHADDPD    Y13, Y12, Y1
	VPERM2F128 $0x20, Y1, Y0, Y2
	VPERM2F128 $0x31, Y1, Y0, Y3
	VADDPD     Y3, Y2, Y2
	VADDPD     Y2, Y14, Y14

	VPCMPEQQ Y9, Y9, Y9
	VPSRLQ   $1, Y9, Y9 // |·| mask: every bit but the sign
	VANDPD   Y9, Y10, Y10
	VANDPD   Y9, Y11, Y11
	VANDPD   Y9, Y12, Y12
	VANDPD   Y9, Y13, Y13

	VADDPD     Y11, Y10, Y0
	VADDPD     Y13, Y12, Y1
	VADDPD     Y1, Y0, Y0
	VADDPD     (BX), Y0, Y0
	VMOVUPD    Y0, (BX)
	VHADDPD    Y11, Y10, Y0
	VHADDPD    Y13, Y12, Y1
	VPERM2F128 $0x20, Y1, Y0, Y2
	VPERM2F128 $0x31, Y1, Y0, Y3
	VADDPD     Y3, Y2, Y2
	VADDPD     Y2, Y15, Y15

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
