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
