#include "textflag.h"

// AVX2 column axpy kernels (see axpy.go). Only used when
// cpuSupportsAVX2FMA() reports true.
//
// Each element is computed as in the scalar Go loop: p = x[i]*t rounded,
// then y[i]+p (or y[i]-p) rounded. Operand order matches the compiled
// scalar code too — x is the first source of the multiply, p the first
// source of the add and y the first source of the subtract — because x86
// returns the first source's payload when both operands are NaN. Go
// assembler operand order is (src2, src1, dst).
//
// The main loop moves 16 elements (four YMM vectors) per iteration, then
// one vector at a time, then a scalar tail of up to three elements.

// AXPY is the body both kernels share: SI walks x, DI walks y, CX counts
// elements and Y0 holds t broadcast. The products p land in Y1..Y4 (X1 in
// the scalar tail); the combine steps COMBINE16, COMBINE4 and COMBINE1
// fold them into y at DI and store the result.
#define AXPY(COMBINE16, COMBINE4, COMBINE1) \
	MOVQ CX, BX \
	SHRQ $4, BX \
	JZ   step4 \
loop16: \
	VMOVUPD (SI), Y1 \
	VMOVUPD 32(SI), Y2 \
	VMOVUPD 64(SI), Y3 \
	VMOVUPD 96(SI), Y4 \
	VMULPD  Y0, Y1, Y1 \
	VMULPD  Y0, Y2, Y2 \
	VMULPD  Y0, Y3, Y3 \
	VMULPD  Y0, Y4, Y4 \
	COMBINE16 \
	ADDQ    $128, SI \
	ADDQ    $128, DI \
	DECQ    BX \
	JNZ     loop16 \
step4: \
	MOVQ CX, BX \
	ANDQ $15, BX \
	SHRQ $2, BX \
	JZ   step1 \
loop4: \
	VMOVUPD (SI), Y1 \
	VMULPD  Y0, Y1, Y1 \
	COMBINE4 \
	ADDQ    $32, SI \
	ADDQ    $32, DI \
	DECQ    BX \
	JNZ     loop4 \
step1: \
	ANDQ $3, CX \
	JZ   done \
loop1: \
	VMOVSD (SI), X1 \
	VMULSD X0, X1, X1 \
	COMBINE1 \
	ADDQ   $8, SI \
	ADDQ   $8, DI \
	DECQ   CX \
	JNZ    loop1 \
done: \
	VZEROUPPER \
	RET

// y + p: the add reads y from memory as its second source.
#define ADD16 \
	VADDPD  (DI), Y1, Y1 \
	VADDPD  32(DI), Y2, Y2 \
	VADDPD  64(DI), Y3, Y3 \
	VADDPD  96(DI), Y4, Y4 \
	VMOVUPD Y1, (DI) \
	VMOVUPD Y2, 32(DI) \
	VMOVUPD Y3, 64(DI) \
	VMOVUPD Y4, 96(DI)

#define ADD4 \
	VADDPD  (DI), Y1, Y1 \
	VMOVUPD Y1, (DI)

#define ADD1 \
	VADDSD (DI), X1, X1 \
	VMOVSD X1, (DI)

// y - p: y is loaded first (into Y5..Y8, X5) to be the subtract's first
// source.
#define SUB16 \
	VMOVUPD (DI), Y5 \
	VMOVUPD 32(DI), Y6 \
	VMOVUPD 64(DI), Y7 \
	VMOVUPD 96(DI), Y8 \
	VSUBPD  Y1, Y5, Y5 \
	VSUBPD  Y2, Y6, Y6 \
	VSUBPD  Y3, Y7, Y7 \
	VSUBPD  Y4, Y8, Y8 \
	VMOVUPD Y5, (DI) \
	VMOVUPD Y6, 32(DI) \
	VMOVUPD Y7, 64(DI) \
	VMOVUPD Y8, 96(DI)

#define SUB4 \
	VMOVUPD (DI), Y5 \
	VSUBPD  Y1, Y5, Y5 \
	VMOVUPD Y5, (DI)

#define SUB1 \
	VMOVSD (DI), X5 \
	VSUBSD X1, X5, X5 \
	VMOVSD X5, (DI)

// func axpyAVX(t float64, x, y []float64)
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	VBROADCASTSD t+0(FP), Y0
	AXPY(ADD16, ADD4, ADD1)

// func axpySubAVX(t float64, x, y []float64)
TEXT ·axpySubAVX(SB), NOSPLIT, $0-56
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	VBROADCASTSD t+0(FP), Y0
	AXPY(SUB16, SUB4, SUB1)
