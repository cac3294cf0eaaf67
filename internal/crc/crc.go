// Package crc is the module's one CRC-32 (IEEE): the checksum of the
// extent store's chunk tables and record headers, of every block the
// metadata plane records (the serve wire's header field 28), and of the
// rebuilt blocks the repair paths check against it.
//
// Four functions cover every use. Checksum is the CRC of a buffer.
// FillTable and VerifyTable write and check a table of one big-endian
// CRC per ChunkSize slice of a buffer, one call per buffer. Combine is
// zlib's crc32_combine: CRC-32 is linear over GF(2), so the CRC of A‖B
// follows from CRC(A), CRC(B) and len(B), and a block's CRC follows
// from its chunk table in O(chunks) without touching its bytes. For the
// fixed ChunkSize the operator "append ChunkSize zero bytes" is
// precomputed.
//
// # Kernel tiers
//
// On amd64, when the CPU has AVX512F and VPCLMULQDQ and the OS saves
// the opmask and ZMM state (CPUID leaves 1 and 7, XCR0), buffers of 256
// bytes and more fold 256 bytes a step in four ZMM registers with
// carry-less multiplies (kernel_amd64.s). Every other host, every other
// GOARCH and the purego build use hash/crc32. The choice is made once at
// start-up, with no option, and both tiers return identical values.
package crc

import (
	"encoding/binary"
	"hash/crc32"
)

// ChunkSize is the span of a buffer one chunk-table entry covers.
const ChunkSize = 4096

// kernelTier is one implementation of Checksum's bulk loop.
type kernelTier int

const (
	tierGeneric kernelTier = iota // hash/crc32 (its PCLMULQDQ loop on amd64)
	tierVPCLMUL                   // 512-bit folds, kernel_amd64.s
)

// Checksum returns the CRC-32 (IEEE) of p.
func Checksum(p []byte) uint32 { return update(0, p) }

// generic is hash/crc32's IEEE CRC, continued from crc.
func generic(crc uint32, p []byte) uint32 { return crc32.Update(crc, crc32.IEEETable, p) }

// FillTable writes the CRC of each ChunkSize slice of p, the last one
// covering the short tail, into table as big-endian words. table has
// 4*ceil(len(p)/ChunkSize) bytes.
func FillTable(table, p []byte) {
	for ; len(p) > 0; table = table[4:] {
		n := min(len(p), ChunkSize)
		binary.BigEndian.PutUint32(table, Checksum(p[:n]))
		p = p[n:]
	}
}

// VerifyTable reports whether every ChunkSize slice of p, the last one
// possibly short, has the CRC that the matching entry of table holds.
// table may hold more entries than p has chunks; the extra ones are
// not read.
func VerifyTable(table, p []byte) bool {
	for ; len(p) > 0; table = table[4:] {
		n := min(len(p), ChunkSize)
		if Checksum(p[:n]) != binary.BigEndian.Uint32(table) {
			return false
		}
		p = p[n:]
	}
	return true
}

// Combine returns the CRC of A‖B from crc1 = CRC(A), crc2 = CRC(B) and
// len2 = len(B): crc1 carried past len2 zero bytes, XOR crc2.
func Combine(crc1, crc2 uint32, len2 int64) uint32 {
	if len2 == ChunkSize {
		return shiftChunk(crc1) ^ crc2
	}
	return multModP(xPow8n(len2), crc1) ^ crc2
}

// The polynomial arithmetic below works, like the CRC itself, on
// bit-reflected polynomials modulo P, the IEEE polynomial: bit 31 is
// the coefficient of x^0 and bit 0 that of x^31.
const reflectedPoly = 0xedb88320

// multModP returns a·b modulo P.
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ reflectedPoly
		} else {
			b >>= 1
		}
	}
	return p
}

// x2k[k] is x^(2^k) modulo P. The powers repeat after 2^32-1, so 32
// squarings cover every exponent.
var x2k [32]uint32

// chunkOp[i][b] is byte i of a CRC, valued b, carried past ChunkSize
// zero bytes: x^(8·ChunkSize)·(b·x^(8i)) modulo P. The operator is
// linear, so a CRC's four bytes carry independently.
var chunkOp [4][256]uint32

func init() {
	p := uint32(1) << 30 // x^1
	for k := range x2k {
		x2k[k] = p
		p = multModP(p, p)
	}
	op := xPow8n(ChunkSize)
	for i := range chunkOp {
		for b := range chunkOp[i] {
			chunkOp[i][b] = multModP(op, uint32(b)<<(8*i))
		}
	}
}

// xPow8n returns x^(8n) modulo P, the operator that carries a CRC past
// n zero bytes.
func xPow8n(n int64) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 3; n != 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = multModP(x2k[k&31], p)
		}
	}
	return p
}

// shiftChunk carries crc past ChunkSize zero bytes.
func shiftChunk(crc uint32) uint32 {
	return chunkOp[0][byte(crc)] ^ chunkOp[1][byte(crc>>8)] ^ chunkOp[2][byte(crc>>16)] ^ chunkOp[3][crc>>24]
}
