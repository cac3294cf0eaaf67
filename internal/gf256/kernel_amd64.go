//go:build amd64 && !purego

package gf256

// tier is the kernel the multiply-accumulate operations run. It is
// decided once, from what the CPU and the OS report, before any caller
// can run; only TestCPUFeatureGate writes it again, to walk the tiers
// below the one this host selects.
var tier = detectTier()

// detectTier returns the highest tier this host can run.
func detectTier() kernelTier {
	for k := tierGFNI; k > tierTable; k-- {
		if lacks(k) == "" {
			return k
		}
	}
	return tierTable
}

// lacks names the first CPU or OS feature that tier k needs and this
// host does not report, or returns "" if the host can run k. Every
// vector tier needs the usual AVX2 checks: the CPU has AVX and lets the
// OS manage extended state (leaf 1), the OS saves the XMM and YMM
// registers (XCR0 bits 1 and 2), and the CPU has AVX2 (leaf 7 EBX bit
// 5). The GFNI tier adds AVX512F (leaf 7 EBX bit 16), GFNI (leaf 7 ECX
// bit 8), and an OS that saves the opmask and all 512 bits of all 32
// ZMM registers (XCR0 bits 5, 6 and 7).
func lacks(k kernelTier) string {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return "CPUID leaf 7"
	}
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 {
		return "OSXSAVE"
	}
	if ecx1&avx == 0 {
		return "AVX"
	}
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 {
		return "XCR0 YMM state"
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	if ebx7&(1<<5) == 0 {
		return "AVX2"
	}
	if k == tierAVX2 {
		return ""
	}
	if ebx7&(1<<16) == 0 {
		return "AVX512F"
	}
	if ecx7&(1<<8) == 0 {
		return "GFNI"
	}
	if xcr0&0xE6 != 0xE6 {
		return "XCR0 ZMM state"
	}
	return ""
}

// nibTable[c] holds c's split-nibble products: bytes 0-15 are c*x for
// x = 0..15, bytes 16-31 are c*(x<<4). It is the AVX2 kernel's
// operand: 32 bytes per coefficient where mulTable spends 256.
var nibTable [256][32]byte

// gfniTable[c] is multiplication by c as the 8x8 bit matrix
// VGF2P8AFFINEQB applies to every byte: byte 7-i of the qword is the
// row for output bit i, and its bit j is bit i of c*2^j. Multiplying by
// c is linear over GF(2), so c*v is the XOR of the c*2^j for the set
// bits j of v, and each output bit is the parity of its row ANDed with
// v — which is what the instruction computes.
var gfniTable [256]uint64

// This init runs after the one in gf256.go that fills the log/exp tables
// mulSlow reads: the go command hands a package's files to the compiler
// in file name order, and init functions run in that order.
func init() {
	for c := range nibTable {
		for x := 0; x < 16; x++ {
			nibTable[c][x] = mulSlow(byte(c), byte(x))
			nibTable[c][16+x] = mulSlow(byte(c), byte(x<<4))
		}
		for j := 0; j < 8; j++ {
			p := mulSlow(byte(c), 1<<j)
			for i := 0; i < 8; i++ {
				if p>>i&1 != 0 {
					gfniTable[c] |= 1 << (8*(7-i) + j)
				}
			}
		}
	}
}

const (
	avx2Bytes  = 32  // the AVX2 kernel's step: one YMM register
	gfniBytes  = 64  // the single-input GFNI step: one ZMM register
	fusedBytes = 128 // the fused GFNI step: two ZMM accumulators
	fusedMaxIn = 16  // inputs the fused GFNI kernel folds per pass
)

// mulAddVec performs out[i] ^= c*in[i] over the largest multiple of the
// live vector step and returns how many bytes that was; the caller
// finishes the tail. It returns 0 on the table tier.
func mulAddVec(c byte, in, out []byte) int {
	var n int
	switch tier {
	case tierGFNI:
		if n = len(in) &^ (gfniBytes - 1); n > 0 {
			out = out[:n] // the assembly checks no bounds: panic here if out is short
			mulAddGFNI(gfniTable[c], &in[0], &out[0], n)
		}
	case tierAVX2:
		if n = len(in) &^ (avx2Bytes - 1); n > 0 {
			out = out[:n]
			mulAddAVX2(&nibTable[c], &in[0], &out[0], n)
		}
	}
	return n
}

// mulAddChunkVec folds inputs[i][lo:hi] times coeffs[i] into dst, which
// is out[lo:hi], and reports whether a vector tier did it; on the table
// tier it does nothing and returns false. The AVX2 tier makes one pass
// over dst per input. The GFNI tier folds up to fusedMaxIn inputs with a
// non-zero coefficient per pass, loading and storing dst once per
// 128-byte step, and leaves the sub-step tail to MulSliceXor.
func mulAddChunkVec(coeffs []byte, inputs [][]byte, lo, hi int, dst []byte) bool {
	switch tier {
	case tierTable:
		return false
	case tierAVX2:
		for i, c := range coeffs {
			MulSliceXor(c, inputs[i][lo:hi], dst)
		}
		return true
	}
	body := len(dst) &^ (fusedBytes - 1)
	if body > 0 {
		// The pass's operands live on the stack: a slice of them would be
		// an allocation per chunk.
		var mats [fusedMaxIn]uint64
		var ins [fusedMaxIn]*byte
		k := 0
		for i, c := range coeffs {
			if c == 0 {
				continue
			}
			mats[k], ins[k] = gfniTable[c], &inputs[i][lo]
			if k++; k == fusedMaxIn {
				mulAddGFNIFused(&mats, &ins, k, &dst[0], body)
				k = 0
			}
		}
		if k > 0 {
			mulAddGFNIFused(&mats, &ins, k, &dst[0], body)
		}
	}
	if body < len(dst) {
		for i, c := range coeffs {
			MulSliceXor(c, inputs[i][lo+body:hi], dst[body:])
		}
	}
	return true
}

// mulAddAVX2 is the AVX2 kernel in kernel_amd64.s. n is a positive
// multiple of 32; tbl is one row of nibTable.
//
//go:noescape
func mulAddAVX2(tbl *[32]byte, in, out *byte, n int)

// mulAddGFNI is the single-input GFNI kernel in kernel_amd64.s. n is a
// positive multiple of 64; mat is one entry of gfniTable.
//
//go:noescape
func mulAddGFNI(mat uint64, in, out *byte, n int)

// mulAddGFNIFused is the fused GFNI kernel in kernel_amd64.s: out[j] ^=
// XOR_{i<k} mats[i]·ins[i][j] for j < n. k is 1..16; n is a positive
// multiple of 128, and each ins[i] points at n readable bytes.
//
//go:noescape
func mulAddGFNIFused(mats *[fusedMaxIn]uint64, ins *[fusedMaxIn]*byte, k int, out *byte, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
