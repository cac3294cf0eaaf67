//go:build amd64 && !purego

package crc

// tier is the kernel Checksum runs. It is decided once, from what the
// CPU and the OS report, before any caller can run; only
// TestCPUFeatureGate writes it again, to walk the tiers.
var tier = detectTier()

func detectTier() kernelTier {
	if lacks(tierVPCLMUL) == "" {
		return tierVPCLMUL
	}
	return tierGeneric
}

// lacks names the first CPU or OS feature that tier k needs and this
// host does not report, or returns "" if the host can run k. The
// VPCLMULQDQ tier needs PCLMULQDQ, AVX and an OS that manages extended
// state (leaf 1 ECX bits 1, 28 and 27), AVX512F (leaf 7 EBX bit 16),
// VPCLMULQDQ (leaf 7 ECX bit 10), and an OS that saves the XMM and YMM
// registers, the opmask and all 512 bits of all 32 ZMM registers (XCR0
// bits 1, 2, 5, 6 and 7).
func lacks(k kernelTier) string {
	if k == tierGeneric {
		return ""
	}
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return "CPUID leaf 7"
	}
	const pclmulqdq, osxsave, avx = 1 << 1, 1 << 27, 1 << 28
	_, _, ecx1, _ := cpuid(1, 0)
	switch {
	case ecx1&pclmulqdq == 0:
		return "PCLMULQDQ"
	case ecx1&osxsave == 0:
		return "OSXSAVE"
	case ecx1&avx == 0:
		return "AVX"
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	if ebx7&(1<<16) == 0 {
		return "AVX512F"
	}
	if ecx7&(1<<10) == 0 {
		return "VPCLMULQDQ"
	}
	if xcr0, _ := xgetbv(); xcr0&0xE6 != 0xE6 {
		return "XCR0 ZMM state"
	}
	return ""
}

// foldBytes is the VPCLMULQDQ kernel's shortest input: its first load
// fills four ZMM registers.
const foldBytes = 256

// foldK holds the kernel's constants, each x^n modulo P (bit-reflected,
// shifted left one bit, as carry-less multiplies of reflected operands
// want it). Folding a 128-bit lane forward by d bits multiplies its low
// qword by x^(d+32) and its high qword by x^(d-32); the pairs are laid
// out for the loads in kernel_amd64.s:
//
//	[0:2]   d = 2048: four ZMM registers forward by 256 bytes
//	[2:4]   d = 512: one ZMM register forward by 64 bytes
//	[4:12]  d = 384, 256, 128 and 0 (no fold): the four lanes of a ZMM
//	        register onto its last; [8:10] also folds one lane forward
//	[12:14] x^64, for 96 bits to 64
//	[14:16] P and x^64 / P (33 bits each), for the Barrett reduction
var foldK [16]uint64

// This init runs after the one in crc.go that fills x2k, which xPow8n
// reads: the go command hands a package's files to the compiler in file
// name order, and init functions run in that order. Every exponent is a
// whole number of bytes.
func init() {
	for i, bits := range [...]int64{2080, 2016, 544, 480, 416, 352, 288, 224, 160, 96} {
		foldK[i] = uint64(xPow8n(bits/8)) << 1
	}
	foldK[12] = uint64(xPow8n(64/8)) << 1
	foldK[14], foldK[15] = 0x1db710641, 0x1f7011641
}

// update continues crc over p: the kernel over the longest multiple of
// 16 bytes, hash/crc32 over the tail, if any, and over buffers too short
// to fold.
func update(crc uint32, p []byte) uint32 {
	if tier == tierVPCLMUL && len(p) >= foldBytes {
		n := len(p) &^ 15
		crc = ^foldVPCLMUL(^crc, &p[0], n, &foldK)
		if p = p[n:]; len(p) == 0 {
			return crc
		}
	}
	return generic(crc, p)
}

// foldVPCLMUL is the kernel in kernel_amd64.s. It returns the CRC of
// the n bytes at p continued from crc, both without the final and
// initial inversion. n is at least 256 and a multiple of 16.
//
//go:noescape
func foldVPCLMUL(crc uint32, p *byte, n int, k *[16]uint64) uint32

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
