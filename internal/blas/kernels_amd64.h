// Register-tile macros shared by the AVX2 kernels of microkernel_amd64.s
// and ftkernel_amd64.s. A block that two kernels need bitwise alike is
// written here once, so the plain and the fused kernel assemble the same
// instructions by construction. Go assembler operand order is
// (src2, src1, dst).
//
// Register roles of the 4×4 tile: SI walks the packed A micro-panel, DI the
// packed B micro-panel, CX holds kc, R9 counts double steps, Y0..Y3 and
// Y4..Y7 are the two accumulator sets (one YMM register, four rows, per
// column of C) and Y9..Y12 receive the broadcast B values.
//
// No macro names a frame argument (name+off(FP)): go vet's asmdecl check
// does not expand macros, so every argument reference stays in a TEXT body
// where it is checked.

// TILE_CLEAR zeroes both accumulator sets Y0..Y7.
#define TILE_CLEAR \
	VXORPD Y0, Y0, Y0 \
	VXORPD Y1, Y1, Y1 \
	VXORPD Y2, Y2, Y2 \
	VXORPD Y3, Y3, Y3 \
	VXORPD Y4, Y4, Y4 \
	VXORPD Y5, Y5, Y5 \
	VXORPD Y6, Y6, Y6 \
	VXORPD Y7, Y7, Y7

// TILE_STEP is one k step of the tile: the packed A vector at off(SI), into
// va, against the four packed B values at off(DI), one FMA into each of
// acc0..acc3.
#define TILE_STEP(off, va, acc0, acc1, acc2, acc3) \
	VMOVUPD      off(SI), va \
	VBROADCASTSD off(DI), Y9 \
	VFMADD231PD  va, Y9, acc0 \
	VBROADCASTSD off+8(DI), Y10 \
	VFMADD231PD  va, Y10, acc1 \
	VBROADCASTSD off+16(DI), Y11 \
	VFMADD231PD  va, Y11, acc2 \
	VBROADCASTSD off+24(DI), Y12 \
	VFMADD231PD  va, Y12, acc3

// TILE_KLOOP runs the kc k steps of one tile: kc/2 double steps, the first
// into Y0..Y3 and the second into Y4..Y7 so eight FMA chains are in flight
// (hiding the 4-5 cycle FMA latency on two FMA ports), then the odd step
// into Y0..Y3, skipped by a jump to done when kc is even. SI and DI advance
// past the double steps only; the odd step leaves them where it read.
#define TILE_KLOOP(done) \
	MOVQ CX, R9 \
	SHRQ $1, R9 \
	JZ   ktail \
kloop: \
	TILE_STEP(0, Y8, Y0, Y1, Y2, Y3) \
	TILE_STEP(32, Y13, Y4, Y5, Y6, Y7) \
	ADDQ $64, SI \
	ADDQ $64, DI \
	DECQ R9 \
	JNZ  kloop \
ktail: \
	TESTQ $1, CX \
	JZ    done \
	TILE_STEP(0, Y8, Y0, Y1, Y2, Y3)

// TILE_FOLD adds the second accumulator set into the first.
#define TILE_FOLD \
	VADDPD Y4, Y0, Y0 \
	VADDPD Y5, Y1, Y1 \
	VADDPD Y6, Y2, Y2 \
	VADDPD Y7, Y3, Y3
