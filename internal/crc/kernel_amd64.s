//go:build amd64 && !purego

#include "textflag.h"

// CRC-32 by folding (Intel, "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ", 2009), on bit-reflected data and
// constants. A 128-bit lane of message stands for a polynomial; carrying
// it d bits further along the message is a multiply by x^d modulo P,
// which two carry-less multiplies do without the modulo: its low qword
// by x^(d+32), its high qword by x^(d-32), the two products XORed into
// the lane d bits on. VPCLMULQDQ on a ZMM register does that for four
// lanes at once. The message is folded down to one lane, the lane to 32
// bits, and a Barrett reduction yields the CRC. foldK (kernel_amd64.go)
// holds the constants.

// func foldVPCLMUL(crc uint32, p *byte, n int, k *[16]uint64) uint32
//
// Register use: SI p, CX bytes left, DX k, Z0-Z3 the four accumulators
// (256 bytes of message), Z4-Z7 the next 256 bytes, Z8 and Z9 the fold
// constants, Z10 and Z11 products; from one lane on, X1 the accumulator,
// X3 a 32-bit mask per qword, X4-X6 scratch.
TEXT ·foldVPCLMUL(SB), NOSPLIT, $0-36
	MOVL crc+0(FP), AX
	MOVQ p+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ k+24(FP), DX

	// The running CRC enters as an XOR into the first four bytes.
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVD AX, X4
	VPXORQ Z4, Z0, Z0
	ADDQ $256, SI
	SUBQ $256, CX
	VBROADCASTI32X4 (DX), Z8
	CMPQ CX, $256
	JB merge

loop256:
	VMOVDQU64 (SI), Z4
	VMOVDQU64 64(SI), Z5
	VMOVDQU64 128(SI), Z6
	VMOVDQU64 192(SI), Z7
	VPCLMULQDQ $0x00, Z8, Z0, Z10
	VPCLMULQDQ $0x11, Z8, Z0, Z0
	VPTERNLOGQ $0x96, Z10, Z4, Z0
	VPCLMULQDQ $0x00, Z8, Z1, Z10
	VPCLMULQDQ $0x11, Z8, Z1, Z1
	VPTERNLOGQ $0x96, Z10, Z5, Z1
	VPCLMULQDQ $0x00, Z8, Z2, Z10
	VPCLMULQDQ $0x11, Z8, Z2, Z2
	VPTERNLOGQ $0x96, Z10, Z6, Z2
	VPCLMULQDQ $0x00, Z8, Z3, Z10
	VPCLMULQDQ $0x11, Z8, Z3, Z3
	VPTERNLOGQ $0x96, Z10, Z7, Z3
	ADDQ $256, SI
	SUBQ $256, CX
	CMPQ CX, $256
	JAE loop256

merge:
	// Each accumulator forward 64 bytes onto the next: Z3 holds them all.
	VBROADCASTI32X4 16(DX), Z9
	VPCLMULQDQ $0x00, Z9, Z0, Z10
	VPCLMULQDQ $0x11, Z9, Z0, Z11
	VPTERNLOGQ $0x96, Z10, Z11, Z1
	VPCLMULQDQ $0x00, Z9, Z1, Z10
	VPCLMULQDQ $0x11, Z9, Z1, Z11
	VPTERNLOGQ $0x96, Z10, Z11, Z2
	VPCLMULQDQ $0x00, Z9, Z2, Z10
	VPCLMULQDQ $0x11, Z9, Z2, Z11
	VPTERNLOGQ $0x96, Z10, Z11, Z3
	CMPQ CX, $64
	JB lanes

loop64:
	VMOVDQU64 (SI), Z4
	VPCLMULQDQ $0x00, Z9, Z3, Z10
	VPCLMULQDQ $0x11, Z9, Z3, Z3
	VPTERNLOGQ $0x96, Z10, Z4, Z3
	ADDQ $64, SI
	SUBQ $64, CX
	CMPQ CX, $64
	JAE loop64

lanes:
	// Lanes 0-2 forward by 48, 32 and 16 bytes onto lane 3; lane 3's
	// constants are zero, so its products vanish and it joins as itself.
	VMOVDQU64 32(DX), Z8
	VPCLMULQDQ $0x00, Z8, Z3, Z10
	VPCLMULQDQ $0x11, Z8, Z3, Z11
	VEXTRACTI32X4 $3, Z3, X1
	VPTERNLOGQ $0x96, Z10, Z11, Z1
	VEXTRACTI64X4 $1, Z1, Y4
	VPXOR Y4, Y1, Y1
	VEXTRACTI128 $1, Y1, X4
	VPXOR X4, X1, X1
	VMOVDQU 64(DX), X5
	CMPQ CX, $16
	JB reduce

loop16:
	VMOVDQU (SI), X4
	VPCLMULQDQ $0x00, X5, X1, X6
	VPCLMULQDQ $0x11, X5, X1, X1
	VPXOR X6, X1, X1
	VPXOR X4, X1, X1
	ADDQ $16, SI
	SUBQ $16, CX
	CMPQ CX, $16
	JAE loop16

reduce:
	// 128 bits to 96: the low qword by x^96 onto the high one.
	VPCLMULQDQ $0x01, X1, X5, X6
	VPSRLDQ $8, X1, X1
	VPXOR X6, X1, X1
	// 96 bits to 64: the low 32 bits by x^64 onto the rest.
	VPCMPEQB X3, X3, X3
	VPSRLQ $32, X3, X3
	VMOVQ 96(DX), X5
	VPSRLDQ $4, X1, X6
	VPAND X3, X1, X1
	VPCLMULQDQ $0x00, X5, X1, X1
	VPXOR X6, X1, X1
	// Barrett: T = (R mod x^32)·u mod x^32, CRC = R ^ T·P, in bits 32-63.
	VMOVDQU 112(DX), X5
	VPAND X3, X1, X6
	VPCLMULQDQ $0x10, X5, X6, X6
	VPAND X3, X6, X6
	VPCLMULQDQ $0x00, X5, X6, X6
	VPXOR X1, X6, X6
	VPEXTRD $1, X6, AX
	VZEROUPPER
	MOVL AX, ret+32(FP)
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
