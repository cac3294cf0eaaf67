package crc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
	"unsafe"
)

// The differential tests hold whichever kernel this build and this CPU
// select to hash/crc32. They run in the default build (the VPCLMULQDQ
// tier where the host has it), under -tags purego (make test-purego),
// and once per tier the host can run (TestCPUFeatureGate).

const (
	sweepAlign  = 64              // offsets 0..63 are every alignment of a ZMM load
	sweepMaxLen = 3*ChunkSize + 1 // three chunks and a byte
)

// tierNames are the tiers as the package doc and the test log name them.
var tierNames = [...]string{tierGeneric: "generic", tierVPCLMUL: "vpclmulqdq"}

// alignedBytes returns n bytes whose first element sits on a 64-byte
// boundary, so that a start offset into it is that alignment exactly.
func alignedBytes(n int) []byte {
	b := make([]byte, n+sweepAlign)
	skip := -uintptr(unsafe.Pointer(&b[0])) & (sweepAlign - 1)
	return b[skip : int(skip)+n]
}

// refTable is FillTable by hash/crc32, chunk by chunk.
func refTable(p []byte) []byte {
	var table []byte
	for ; len(p) > 0; p = p[min(len(p), ChunkSize):] {
		table = binary.BigEndian.AppendUint32(table, crc32.ChecksumIEEE(p[:min(len(p), ChunkSize)]))
	}
	return table
}

// TestKernelsMatchReference sweeps the tier this build and host run,
// and logs which one that is.
func TestKernelsMatchReference(t *testing.T) {
	t.Logf("crc kernel tier: %s", tierNames[tier])
	checkKernels(t)
}

// checkKernels holds Checksum to hash/crc32 at every length from 0 to
// three chunks and a byte, at every alignment from 0 to 63, and
// FillTable and VerifyTable to a chunk-by-chunk reference around every
// chunk boundary.
func checkKernels(t *testing.T) {
	buf := alignedBytes(sweepMaxLen + sweepAlign)
	rand.New(rand.NewSource(1)).Read(buf)
	for a := 0; a < sweepAlign; a++ {
		for n := 0; n <= sweepMaxLen; n++ {
			p := buf[a : a+n]
			if got, want := Checksum(p), crc32.ChecksumIEEE(p); got != want {
				t.Fatalf("Checksum(len %d at alignment %d) = %08x, want %08x", n, a, got, want)
			}
		}
	}
	for _, n := range []int{0, 1, 255, 256, ChunkSize - 1, ChunkSize, ChunkSize + 1, 2*ChunkSize + 16, sweepMaxLen} {
		for _, a := range []int{0, 1, 63} {
			p := buf[a : a+n]
			want := refTable(p)
			table := make([]byte, len(want))
			FillTable(table, p)
			if string(table) != string(want) {
				t.Fatalf("FillTable(len %d at alignment %d) = %x, want %x", n, a, table, want)
			}
			if !VerifyTable(table, p) {
				t.Fatalf("VerifyTable refuses its own table (len %d at alignment %d)", n, a)
			}
			for i := 0; i < n; i += ChunkSize/2 + 7 {
				p[i] ^= 0x20
				ok := VerifyTable(table, p)
				p[i] ^= 0x20
				if ok {
					t.Fatalf("VerifyTable accepts byte %d flipped (len %d at alignment %d)", i, n, a)
				}
			}
		}
	}
}

// checkNoAlloc holds every exported function to zero allocations.
func checkNoAlloc(t *testing.T) {
	p := make([]byte, 64<<10+5)
	table := make([]byte, 4*((len(p)+ChunkSize-1)/ChunkSize))
	FillTable(table, p)
	var sink uint32
	for name, fn := range map[string]func(){
		"Checksum":    func() { sink ^= Checksum(p) },
		"FillTable":   func() { FillTable(table, p) },
		"VerifyTable": func() { _ = VerifyTable(table, p) },
		"Combine":     func() { sink = Combine(sink, 7, ChunkSize) ^ Combine(sink, 9, 1000) },
	} {
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, allocs)
		}
	}
}

// TestCombine holds Combine to hash/crc32 of the joined buffer: at
// random split points, with either part empty, across a chunk table's
// chunks with a short last one, and on the precomputed chunk operator
// against the general one.
func TestCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	buf := make([]byte, 5*ChunkSize+123)
	rng.Read(buf)
	for i := 0; i < 500; i++ {
		n := rng.Intn(len(buf) + 1)
		cut := rng.Intn(n + 1)
		a, b := buf[:cut], buf[cut:n]
		if got, want := Combine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), int64(len(b))), crc32.ChecksumIEEE(buf[:n]); got != want {
			t.Fatalf("Combine at split %d of %d = %08x, want %08x", cut, n, got, want)
		}
	}
	for _, n := range []int{0, 1, ChunkSize, len(buf)} {
		whole := crc32.ChecksumIEEE(buf[:n])
		if got := Combine(whole, 0, 0); got != whole {
			t.Errorf("Combine(crc of %d bytes, empty) = %08x, want %08x", n, got, whole)
		}
		if got := Combine(0, whole, int64(n)); got != whole {
			t.Errorf("Combine(empty, crc of %d bytes) = %08x, want %08x", n, got, whole)
		}
	}
	for _, n := range []int{1, ChunkSize - 1, ChunkSize, ChunkSize + 1, 3*ChunkSize + 17, len(buf)} {
		table := refTable(buf[:n])
		var sum uint32
		for i, left := 0, n; left > 0; i, left = i+4, left-ChunkSize {
			sum = Combine(sum, binary.BigEndian.Uint32(table[i:]), int64(min(left, ChunkSize)))
		}
		if want := crc32.ChecksumIEEE(buf[:n]); sum != want {
			t.Errorf("chunk table of %d bytes folds to %08x, want %08x", n, sum, want)
		}
	}
	for i := 0; i < 1000; i++ {
		c := rng.Uint32()
		if got, want := shiftChunk(c), multModP(xPow8n(ChunkSize), c); got != want {
			t.Fatalf("shiftChunk(%08x) = %08x, want %08x", c, got, want)
		}
	}
}

func TestKernelsStayInBounds(t *testing.T) { checkInBounds(t) }

// FuzzChecksum holds Checksum, and Combine over a split of the input,
// to hash/crc32.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte(""), uint16(0))
	f.Add([]byte("123456789"), uint16(4))
	seed := make([]byte, ChunkSize+300)
	rand.New(rand.NewSource(3)).Read(seed)
	f.Add(seed, uint16(ChunkSize))
	f.Add(seed[:257], uint16(256))
	f.Fuzz(func(t *testing.T, p []byte, split uint16) {
		want := crc32.ChecksumIEEE(p)
		if got := Checksum(p); got != want {
			t.Fatalf("Checksum(len %d) = %08x, want %08x", len(p), got, want)
		}
		cut := int(split) % (len(p) + 1)
		if got := Combine(Checksum(p[:cut]), Checksum(p[cut:]), int64(len(p)-cut)); got != want {
			t.Fatalf("Combine at %d of %d = %08x, want %08x", cut, len(p), got, want)
		}
	})
}

var benchSizes = []int{4 << 10, 64 << 10, 256 << 10}

func BenchmarkChecksum(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("%dKiB", n>>10), func(b *testing.B) {
			p := make([]byte, n)
			rand.New(rand.NewSource(4)).Read(p)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Checksum(p)
			}
		})
	}
}

func BenchmarkChunkTable(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("%dKiB", n>>10), func(b *testing.B) {
			p := make([]byte, n)
			rand.New(rand.NewSource(5)).Read(p)
			table := make([]byte, 4*n/ChunkSize)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FillTable(table, p)
			}
		})
	}
}
