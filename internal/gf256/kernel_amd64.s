//go:build amd64 && !purego

#include "textflag.h"

// Split-nibble GF(2^8) multiply: c*v = lo[v&0x0f] ^ hi[v>>4], where lo
// and hi are the two 16-byte halves of nibTable[c]. VPSHUFB performs 32
// such 16-entry lookups at once (16 per 128-bit lane, hence each table
// half is broadcast to both lanes).
//
// Register use: SI in, DI out, CX bytes left,
// Y0 lo table, Y1 hi table, Y2 0x0f in every byte, Y3 and Y4 scratch.

// func mulAddAVX2(tbl *[32]byte, in, out *byte, n int)
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-32
	MOVQ tbl+0(FP), AX
	MOVQ in+8(FP), SI
	MOVQ out+16(FP), DI
	MOVQ n+24(FP), CX
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	MOVQ $0x0f0f0f0f0f0f0f0f, AX
	MOVQ AX, X2
	VPBROADCASTQ X2, Y2
loop32:
	// The 64-bit shift drags each byte's low nibble into its neighbour's
	// high nibble; the mask removes it.
	VMOVDQU (SI), Y3
	VPSRLQ $4, Y3, Y4
	VPAND Y2, Y3, Y3
	VPAND Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR Y4, Y3, Y3
	VPXOR (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JNZ loop32
	VZEROUPPER
	RET

// GF(2^8) multiply as an affine map: VGF2P8AFFINEQB multiplies every
// byte of a vector by the 8x8 bit matrix in the matching qword of its
// matrix operand (gfniTable[c], broadcast to all eight qwords) and XORs
// in the immediate, here 0. Each instruction multiplies 64 bytes.

// func mulAddGFNI(mat uint64, in, out *byte, n int)
//
// Register use: SI in, DI out, CX bytes left, Z0 the matrix, Z1 scratch.
TEXT ·mulAddGFNI(SB), NOSPLIT, $0-32
	MOVQ mat+0(FP), AX
	MOVQ in+8(FP), SI
	MOVQ out+16(FP), DI
	MOVQ n+24(FP), CX
	VPBROADCASTQ AX, Z0
loop64:
	VMOVDQU64 (SI), Z1
	VGF2P8AFFINEQB $0, Z0, Z1, Z1
	VPXORQ (DI), Z1, Z1
	VMOVDQU64 Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, CX
	JNZ loop64
	VZEROUPPER
	RET

// func mulAddGFNIFused(mats *[16]uint64, ins *[16]*byte, k int, out *byte, n int)
//
// Each 128-byte step loads out into two accumulators, folds in every
// input's product, and stores out once: k inputs cost k+1 passes of
// loads but one of stores, where k single-input calls store k times.
// The matrix is a broadcast memory operand, read from mats per input.
//
// Register use: R8 mats, R9 ins, R10 k, DI out, CX n, DX offset into
// every operand, BX input index, SI input base, Z0 and Z1 accumulators,
// Z2 and Z3 scratch.
TEXT ·mulAddGFNIFused(SB), NOSPLIT, $0-40
	MOVQ mats+0(FP), R8
	MOVQ ins+8(FP), R9
	MOVQ k+16(FP), R10
	MOVQ out+24(FP), DI
	MOVQ n+32(FP), CX
	XORQ DX, DX
step128:
	VMOVDQU64 (DI)(DX*1), Z0
	VMOVDQU64 64(DI)(DX*1), Z1
	XORQ BX, BX
input:
	MOVQ (R9)(BX*8), SI
	VMOVDQU64 (SI)(DX*1), Z2
	VMOVDQU64 64(SI)(DX*1), Z3
	VGF2P8AFFINEQB.BCST $0, (R8)(BX*8), Z2, Z2
	VGF2P8AFFINEQB.BCST $0, (R8)(BX*8), Z3, Z3
	VPXORQ Z2, Z0, Z0
	VPXORQ Z3, Z1, Z1
	INCQ BX
	CMPQ BX, R10
	JNE input
	VMOVDQU64 Z0, (DI)(DX*1)
	VMOVDQU64 Z1, 64(DI)(DX*1)
	ADDQ $128, DX
	CMPQ DX, CX
	JNE step128
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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
