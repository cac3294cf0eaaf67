// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the conventional choice for
// Reed-Solomon codes in storage systems. The generator element is 2.
//
// Addition and subtraction in GF(2^8) are both XOR. Multiplication and
// division are implemented with log/exp tables built at package
// initialisation.
//
// # Tables
//
// Two product tables are built once at package initialisation from the
// same log/exp multiply (mulSlow):
//
//   - mulTable, 256x256 bytes: mulTable[c][v] = c*v. One indexed load per
//     byte; backs Mul, MulSlice, DotProduct and the table kernel.
//   - nibTable, 256x32 bytes, on the amd64 build only (kernel_amd64.go):
//     for each coefficient c, the sixteen products c*x for a low nibble x
//     and the sixteen products c*(x<<4) for a high nibble. Because
//     multiplication distributes over XOR, c*v = c*(v&0x0f) ^ c*(v&0xf0):
//     two 16-entry lookups, which is what a byte-shuffle instruction does
//     for a whole vector at once.
//
// # Kernels
//
// The multiply-accumulate operations (MulSliceXor, MulAddSlices) run one
// of two kernels, chosen once at start-up from what the CPU reports:
//
//   - amd64 with AVX2 (kernel_amd64.go, kernel_amd64.s): the split-nibble
//     kernel, 32 bytes per step with VPSHUFB over nibTable. It handles
//     the largest multiple of 32 bytes; the table kernel finishes the
//     tail.
//   - everything else — amd64 without AVX2, every other GOARCH, and any
//     build with the purego tag (kernel_generic.go): the table kernel, a
//     mulTable lookup per byte, pair-fused and unrolled in MulAddSlices.
//
// Both produce identical bytes; the differential tests hold each to a
// byte-at-a-time Mul reference. Plain XOR (coefficient 1 in MulSliceXor,
// XorSlice, XorAllSlices) is crypto/subtle.XORBytes on every platform.
// MulSlice, the store-only multiply, is the table loop everywhere: its
// one caller scales matrix rows far shorter than a vector step.
//
// # Aliasing
//
// MulSlice, MulSliceXor and XorSlice read in[i] before they write
// out[i], so in and out may be the very same slice (matrix inversion
// scales a row in place). Any other overlap is a caller bug — a vector
// step would read bytes an earlier step already rewrote — and panics
// before a byte is written. The fused forms (MulAddSlices,
// XorAllSlices) refuse an input that shares any byte with out, the same
// slice included: out changes as inputs are folded in, so the result
// would depend on the fold order, which differs between the kernels.
package gf256

import (
	"crypto/subtle"
	"fmt"
	"unsafe"
)

// Polynomial is the primitive polynomial used to construct the field,
// with the x^8 term dropped (the field reduction is modulo this value).
const Polynomial = 0x11D

// Order is the number of elements in the field.
const Order = 256

// generator is the primitive element whose powers enumerate all non-zero
// field elements.
const generator = 2

var (
	// expTable[i] = generator^i. Doubled in length so products of logs
	// (up to 2*254) index without a modulo reduction.
	expTable [510]byte

	// logTable[x] = log_generator(x) for x != 0. logTable[0] is unused
	// and kept at 0; callers must special-case zero.
	logTable [256]int16

	// mulTable[a][b] = a*b in the field. 64 KiB; the price is paid once
	// and the table kernel's bulk operations become a single indexed load
	// per byte.
	mulTable [256][256]byte

	// invTable[x] = x^-1 for x != 0.
	invTable [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = int16(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Polynomial
		}
	}
	// Extend the exp table so expTable[logA+logB] never wraps.
	for i := 255; i < 510; i++ {
		expTable[i] = expTable[i-255]
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			mulTable[a][b] = mulSlow(byte(a), byte(b))
		}
	}
	for x := 1; x < 256; x++ {
		invTable[x] = expTable[255-int(logTable[x])]
	}
}

// mulSlow multiplies two field elements using the log/exp tables. It is
// used only to populate the product tables during initialisation.
func mulSlow(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Add returns a+b in GF(2^8). Addition is XOR.
func Add(a, b byte) byte { return a ^ b }

// Sub returns a-b in GF(2^8). Subtraction equals addition (characteristic 2).
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte { return mulTable[a][b] }

// Div returns a/b in GF(2^8). It panics if b is zero, mirroring integer
// division; callers validate operands at construction time.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	logDiff := int(logTable[a]) - int(logTable[b])
	if logDiff < 0 {
		logDiff += 255
	}
	return expTable[logDiff]
}

// Inv returns the multiplicative inverse of x. It panics if x is zero.
func Inv(x byte) byte {
	if x == 0 {
		panic("gf256: inverse of zero")
	}
	return invTable[x]
}

// Exp returns generator^n for n >= 0.
func Exp(n int) byte {
	if n < 0 {
		panic(fmt.Sprintf("gf256: negative exponent %d", n))
	}
	return expTable[n%255]
}

// Pow returns x^n for n >= 0, with 0^0 == 1.
func Pow(x byte, n int) byte {
	if n < 0 {
		panic(fmt.Sprintf("gf256: negative exponent %d", n))
	}
	if n == 0 {
		return 1
	}
	if x == 0 {
		return 0
	}
	logX := int(logTable[x])
	return expTable[(logX*n)%255]
}

// Log returns log_generator(x). It panics if x is zero.
func Log(x byte) int {
	if x == 0 {
		panic("gf256: log of zero")
	}
	return int(logTable[x])
}

// overlap reports whether a and b share a byte.
func overlap(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	aLo, bLo := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return aLo < bLo+uintptr(len(b)) && bLo < aLo+uintptr(len(a))
}

// checkAlias panics unless in and out, of equal length, are the same
// slice or share no byte. The kernels read in[i] before writing out[i],
// which makes exact aliasing safe and nothing else.
func checkAlias(in, out []byte) {
	if overlap(in, out) && &in[0] != &out[0] {
		panic("gf256: in and out overlap without being the same slice")
	}
}

// checkFusedInput panics if a fused operation's input shares a byte
// with out. Unlike the single-input forms not even exact aliasing is
// allowed: out changes as earlier inputs are folded in, so what such an
// input contributed would depend on the fold order.
func checkFusedInput(in, out []byte) {
	if overlap(in, out) {
		panic("gf256: a fused input overlaps out")
	}
}

// MulSlice sets out[i] = c * in[i] for every i. The two slices must have
// equal length. c == 0 zeroes out; c == 1 copies. in and out may be the
// same slice; a partial overlap is a caller bug and panics.
func MulSlice(c byte, in, out []byte) {
	if len(in) != len(out) {
		panic("gf256: MulSlice length mismatch")
	}
	checkAlias(in, out)
	switch c {
	case 0:
		for i := range out {
			out[i] = 0
		}
	case 1:
		copy(out, in)
	default:
		mt := &mulTable[c]
		for i, v := range in {
			out[i] = mt[v]
		}
	}
}

// MulSliceXor sets out[i] ^= c * in[i] for every i: a multiply-accumulate
// in the field. The two slices must have equal length. in and out may be
// the same slice; a partial overlap is a caller bug and panics.
func MulSliceXor(c byte, in, out []byte) {
	if len(in) != len(out) {
		panic("gf256: MulSliceXor length mismatch")
	}
	checkAlias(in, out)
	switch c {
	case 0:
		// Adding zero is a no-op.
	case 1:
		subtle.XORBytes(out, out, in)
	default:
		n := mulAddVec(c, in, out)
		mt := &mulTable[c]
		for i, v := range in[n:] {
			out[n+i] ^= mt[v]
		}
	}
}

// XorSlice sets out[i] ^= in[i] for every i. The two slices must have
// equal length. in and out may be the same slice (which zeroes it); a
// partial overlap is a caller bug and panics.
func XorSlice(in, out []byte) {
	if len(in) != len(out) {
		panic("gf256: XorSlice length mismatch")
	}
	checkAlias(in, out)
	subtle.XORBytes(out, out, in)
}

// fusedChunk is the per-pass window of the fused bulk kernels. Fusing
// several input shards into one pass over a window this size keeps the
// accumulator resident in L1/L2 while each input streams through once,
// instead of evicting a megabyte-scale accumulator between per-input
// passes.
const fusedChunk = 32 << 10

// MulAddSlices accumulates a coefficient vector times a shard matrix:
// out[j] ^= XOR_i coeffs[i] * inputs[i][j]. It is the fused form of
// calling MulSliceXor once per input, processing the output in
// cache-sized chunks. With the vector kernel each input streams through
// it once per chunk; the table kernel folds pairs of inputs into each
// pass with an unrolled inner loop. len(coeffs) must equal len(inputs),
// and every input must have the length of out and share no byte with it
// (not even be out: see checkFusedInput). Inputs with a zero coefficient
// are skipped; an all-ones coefficient vector takes the XorAllSlices
// path.
func MulAddSlices(coeffs []byte, inputs [][]byte, out []byte) {
	if len(coeffs) != len(inputs) {
		panic("gf256: MulAddSlices coeffs/inputs length mismatch")
	}
	for _, in := range inputs {
		if len(in) != len(out) {
			panic("gf256: MulAddSlices input length mismatch")
		}
		checkFusedInput(in, out)
	}
	// An all-ones vector — an XOR parity, an LRC local repair — needs no
	// multiplication tables at all.
	ones := len(coeffs) > 0
	for _, c := range coeffs {
		if c != 1 {
			ones = false
			break
		}
	}
	if ones {
		XorAllSlices(inputs, out)
		return
	}
	for lo := 0; lo < len(out); lo += fusedChunk {
		hi := lo + fusedChunk
		if hi > len(out) {
			hi = len(out)
		}
		dst := out[lo:hi]
		if useVec {
			// One MulSliceXor per input: vector body, table tail, plain
			// XOR for a coefficient of one, nothing for zero.
			for i, c := range coeffs {
				MulSliceXor(c, inputs[i][lo:hi], dst)
			}
			continue
		}
		// The table kernel. Zero-coefficient inputs are skipped and the
		// remaining live ones fused pairwise on the fly: pending holds a
		// live input waiting for its pair partner. Re-scanning the
		// coefficient vector per chunk is a handful of byte compares
		// against 32 KiB of accumulate work, and keeps the kernel
		// allocation-free (no index slice per call).
		pending := -1
		for i := range inputs {
			if coeffs[i] == 0 {
				continue
			}
			if pending < 0 {
				pending = i
				continue
			}
			mulAddPair(coeffs[pending], inputs[pending][lo:hi], coeffs[i], inputs[i][lo:hi], dst)
			pending = -1
		}
		if pending >= 0 {
			MulSliceXor(coeffs[pending], inputs[pending][lo:hi], dst)
		}
	}
}

// mulAddPair performs dst[j] ^= c1*in1[j] ^ c2*in2[j] with a 4-way
// unrolled inner loop: the table kernel's fused step. Both coefficients
// are non-zero.
func mulAddPair(c1 byte, in1 []byte, c2 byte, in2 []byte, dst []byte) {
	t1 := &mulTable[c1]
	t2 := &mulTable[c2]
	n := len(dst)
	in1 = in1[:n]
	in2 = in2[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		dst[j] ^= t1[in1[j]] ^ t2[in2[j]]
		dst[j+1] ^= t1[in1[j+1]] ^ t2[in2[j+1]]
		dst[j+2] ^= t1[in1[j+2]] ^ t2[in2[j+2]]
		dst[j+3] ^= t1[in1[j+3]] ^ t2[in2[j+3]]
	}
	for ; j < n; j++ {
		dst[j] ^= t1[in1[j]] ^ t2[in2[j]]
	}
}

// XorAllSlices accumulates many inputs into out: out[j] ^= XOR_i
// inputs[i][j] — the fused form of calling XorSlice once per input,
// chunked like MulAddSlices. Every input must have the length of out
// and share no byte with it.
func XorAllSlices(inputs [][]byte, out []byte) {
	for _, in := range inputs {
		if len(in) != len(out) {
			panic("gf256: XorAllSlices input length mismatch")
		}
		checkFusedInput(in, out)
	}
	for lo := 0; lo < len(out); lo += fusedChunk {
		hi := lo + fusedChunk
		if hi > len(out) {
			hi = len(out)
		}
		dst := out[lo:hi]
		for _, in := range inputs {
			subtle.XORBytes(dst, dst, in[lo:hi])
		}
	}
}

// DotProduct returns the field dot product of coefficient row coeffs with
// the column vector vals: sum_i coeffs[i]*vals[i]. The slices must have
// equal length.
func DotProduct(coeffs, vals []byte) byte {
	if len(coeffs) != len(vals) {
		panic("gf256: DotProduct length mismatch")
	}
	var acc byte
	for i, c := range coeffs {
		acc ^= mulTable[c][vals[i]]
	}
	return acc
}
