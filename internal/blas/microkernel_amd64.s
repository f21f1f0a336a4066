#include "textflag.h"
#include "kernels_amd64.h"

// AVX2+FMA micro-kernel for the packed Dgemm (see microkernel.go for the
// packing contract). Only used when cpuSupportsAVX2FMA() reports true.
//
// func microKernelAVX(kc int, alpha float64, pa, pb, c []float64, ldc int)
//
// The 4×4 tile lives in Y0..Y3, one YMM register (4 rows) per column of C.
// Each k step loads one packed A vector and broadcasts the four packed B
// values against it; the k loop is unrolled ×2 into a second accumulator
// set Y4..Y7 (TILE_KLOOP in kernels_amd64.h, shared with macroStripPreAVX).
TEXT ·microKernelAVX(SB), NOSPLIT, $0-96
	MOVQ kc+0(FP), CX
	MOVQ pa_base+16(FP), SI
	MOVQ pb_base+40(FP), DI
	MOVQ c_base+64(FP), DX
	MOVQ ldc+88(FP), R8
	SHLQ $3, R8               // column stride of C in bytes

	TILE_CLEAR
	TILE_KLOOP(store)

store:
	// Fold the two accumulator sets, then C(:,j) += alpha * acc_j.
	TILE_FOLD
	VBROADCASTSD alpha+8(FP), Y9

	VMOVUPD (DX), Y10
	VFMADD231PD Y0, Y9, Y10
	VMOVUPD Y10, (DX)
	ADDQ R8, DX
	VMOVUPD (DX), Y11
	VFMADD231PD Y1, Y9, Y11
	VMOVUPD Y11, (DX)
	ADDQ R8, DX
	VMOVUPD (DX), Y12
	VFMADD231PD Y2, Y9, Y12
	VMOVUPD Y12, (DX)
	ADDQ R8, DX
	VMOVUPD (DX), Y13
	VFMADD231PD Y3, Y9, Y13
	VMOVUPD Y13, (DX)

	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
