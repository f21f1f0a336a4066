#include "textflag.h"

// AVX2 kernels of the fused-ABFT routines (dmr.go, ftgemm.go). Only used
// when cpuSupportsAVX2FMA() reports true. Go assembler operand order is
// (src2, src1, dst).

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
