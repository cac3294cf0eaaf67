//go:build amd64 && !purego

package gf256

// useVec says whether the AVX2 kernel runs. It is decided once, from
// what the CPU and the OS report, before any caller can run; only
// TestCPUFeatureGate writes it again, to exercise the table kernel on a
// host that has AVX2.
var useVec = hasAVX2()

// hasAVX2 is the usual three-step check: the CPU has AVX and lets the OS
// manage extended state (leaf 1), the OS has switched on saving of the
// XMM and YMM registers (XCR0 bits 1 and 2), and the CPU has AVX2
// (leaf 7).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// nibTable[c] holds c's split-nibble products: bytes 0-15 are c*x for
// x = 0..15, bytes 16-31 are c*(x<<4). It is the vector kernel's
// operand: 32 bytes per coefficient where mulTable spends 256.
var nibTable [256][32]byte

// This init runs after the one in gf256.go that fills the log/exp tables
// mulSlow reads: the go command hands a package's files to the compiler
// in file name order, and init functions run in that order.
func init() {
	for c := range nibTable {
		for x := 0; x < 16; x++ {
			nibTable[c][x] = mulSlow(byte(c), byte(x))
			nibTable[c][16+x] = mulSlow(byte(c), byte(x<<4))
		}
	}
}

// vecBytes is the kernel's step: one YMM register.
const vecBytes = 32

// mulAddVec performs out[i] ^= c*in[i] over the largest multiple of 32
// bytes and returns how many that was; the caller finishes the tail. It
// returns 0 without AVX2.
func mulAddVec(c byte, in, out []byte) int {
	n := len(in) &^ (vecBytes - 1)
	if !useVec || n == 0 {
		return 0
	}
	out = out[:n] // the assembly checks no bounds: panic here if out is short
	mulAddAVX2(&nibTable[c], &in[0], &out[0], n)
	return n
}

// mulAddAVX2 is the assembly in kernel_amd64.s. n is a positive
// multiple of 32; tbl is one row of nibTable.
//
//go:noescape
func mulAddAVX2(tbl *[32]byte, in, out *byte, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
