package extent

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// encodeV1 is the v1 record encoder, kept here because the store no
// longer writes v1: header with the whole-payload CRC, then the payload.
func encodeV1(id int64, data []byte) []byte {
	rec := make([]byte, headerLen, headerLen+len(data))
	encodeHeader(rec, magicPut, id, uint32(len(data)), crc32.ChecksumIEEE(data))
	return append(rec, data...)
}

// encodeV2 builds a v2 record by hand, independently of appendLocked.
func encodeV2(id int64, data []byte) []byte {
	table := make([]byte, tableLen(int64(len(data))))
	fillTable(table, data)
	rec := make([]byte, headerLen, headerLen+len(table)+len(data))
	encodeHeader(rec, magicPut2, id, uint32(len(data)), crc32.ChecksumIEEE(table))
	return append(append(rec, table...), data...)
}

// writeV1Store lays down sealed v1 segments the way a pre-chunk-table
// store left them: records split over two segment files, an overwrite
// and a tombstone among them. It returns the live contents.
func writeV1Store(t *testing.T, dir string, rng *rand.Rand) map[int64][]byte {
	t.Helper()
	want := make(map[int64][]byte)
	payload := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var seg1, seg2 []byte
	for id, n := range []int{0, 1, ChunkSize - 1, ChunkSize, 3*ChunkSize + 17} {
		want[int64(id)] = payload(n)
		seg1 = append(seg1, encodeV1(int64(id), want[int64(id)])...)
	}
	want[1] = payload(2*ChunkSize + 5) // overwrite in the next segment
	seg2 = append(seg2, encodeV1(1, want[1])...)
	var del [headerLen]byte
	encodeHeader(del[:], magicDel, 3, 0, 0)
	seg2 = append(seg2, del[:]...)
	delete(want, 3)
	for seq, raw := range [][]byte{seg1, seg2} {
		if err := os.WriteFile(filepath.Join(dir, segmentName(seq+1)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

func checkContents(t *testing.T, s *Store, want map[int64][]byte) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	for id, data := range want {
		got, err := s.Get(id)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get(%d): %v (content equal: %v)", id, err, bytes.Equal(got, data))
		}
	}
	if bad, err := s.VerifyAll(); err != nil || len(bad) != 0 {
		t.Fatalf("VerifyAll = %v, %v", bad, err)
	}
}

// TestV1SegmentsStayUsable is the compatibility rule: a store holding
// v1 segments opens, reads (whole and by range), takes v2 appends beside
// them, compacts both versions verbatim, and re-scans to the same
// contents — with v1 bit rot still detected after its record moved.
func TestV1SegmentsStayUsable(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	want := writeV1Store(t, dir, rng)

	s := openTest(t, dir, Options{SegmentBytes: 16 << 10})
	checkContents(t, s, want)
	if got, err := s.ReadRangeInto(4, ChunkSize+3, 100, nil); err != nil || !bytes.Equal(got, want[4][ChunkSize+3:ChunkSize+103]) {
		t.Fatalf("range read of a v1 record: %v", err)
	}

	// New appends are v2 and coexist: an overwrite of a v1 id, a new id.
	for _, id := range []int64{0, 9} {
		want[id] = make([]byte, 2*ChunkSize+99)
		rng.Read(want[id])
		if err := s.Put(id, want[id]); err != nil {
			t.Fatal(err)
		}
	}
	if m := s.index[9].magic; m != magicPut2 {
		t.Fatalf("new append has magic %#x, want v2", m)
	}
	checkContents(t, s, want)

	// Rot one v1 payload, then compact: records move verbatim.
	if err := s.Corrupt(2, 7); err != nil {
		t.Fatal(err)
	}
	cs, err := s.Compact()
	if err != nil || cs.RecordsCopied == 0 {
		t.Fatalf("Compact = %+v, %v", cs, err)
	}
	if m := s.index[4].magic; m != magicPut {
		t.Fatalf("compaction rewrote a v1 record as %#x", m)
	}
	if _, err := s.Get(2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rotted v1 record after compaction: %v, want ErrCorrupt", err)
	}
	delete(want, 2)
	if err := s.Delete(2); err != nil {
		t.Fatal(err)
	}
	checkContents(t, s, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTest(t, dir, Options{})
	checkContents(t, re, want)
}

// TestRangeReadMatchesWholeRead is the differential test: for records
// of both versions and payload sizes around the chunk boundaries, a
// range read returns exactly whole[off:off+len] clipped to the payload's
// end — for random unaligned ranges, ranges reaching past the end, and
// lent buffers of every relevant capacity.
func TestRangeReadMatchesWholeRead(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(17))
	sizes := []int{0, 1, 100, ChunkSize - 1, ChunkSize, ChunkSize + 1, 2 * ChunkSize, 5*ChunkSize + 1234}
	var v1 []byte
	payloads := make(map[int64][]byte)
	for i, n := range sizes {
		data := make([]byte, n)
		rng.Read(data)
		payloads[int64(i)], payloads[int64(100+i)] = data, data
		v1 = append(v1, encodeV1(int64(100+i), data)...)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, Options{})
	for i := range sizes {
		if err := s.Put(int64(i), payloads[int64(i)]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ReadRangeInto(0, -1, 4, nil); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := s.ReadRangeInto(0, 0, -4, nil); err == nil {
		t.Fatal("negative length accepted")
	}
	for id, whole := range payloads {
		n := int64(len(whole))
		for trial := 0; trial < 200; trial++ {
			off := rng.Int63n(n + 2*ChunkSize)
			length := rng.Int63n(n + 2*ChunkSize)
			switch trial % 8 {
			case 0:
				off, length = 0, n
			case 1:
				length = 1 << 62 // far past the end; must not overflow
			case 2:
				off = off / ChunkSize * ChunkSize
			}
			want := []byte{}
			if off < n {
				want = whole[off:min(off+length, n)]
			}
			var dst []byte
			if c := rng.Intn(3); c > 0 {
				// A buffer that just fits the payload, or one too small.
				dst = make([]byte, 0, []int64{0, n, n / 2}[c])
			}
			got, err := s.ReadRangeInto(id, off, length, dst)
			if err != nil {
				t.Fatalf("block %d [%d,+%d): %v", id, off, length, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("block %d (%d bytes) [%d,+%d): got %d bytes, want %d; content differs", id, n, off, length, len(got), len(want))
			}
			// A buffer that holds the payload is always used: the view
			// starts where the range starts within what was read.
			if int64(cap(dst)) >= n && len(got) > 0 {
				lo := int64(0)
				if id < 100 {
					lo = off / ChunkSize * ChunkSize
				}
				if &got[0] != &dst[:cap(dst)][off-lo] {
					t.Fatalf("block %d [%d,+%d): a buffer holding the payload was not used", id, off, length)
				}
			}
		}
	}
}

// rotRecord builds a one-record store whose payload spans chunks full
// chunks plus a short tail.
func rotRecord(t *testing.T, reg *telemetry.Registry, chunks int) (*Store, []byte) {
	t.Helper()
	s := openTest(t, t.TempDir(), Options{Telemetry: reg})
	data := make([]byte, chunks*ChunkSize+321)
	rand.New(rand.NewSource(23)).Read(data)
	if err := s.Put(1, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, data[:ChunkSize]); err != nil {
		t.Fatal(err)
	}
	return s, data
}

// TestChunkRotIsLocalToCoveringRanges: bit rot in chunk i fails every
// range read that covers chunk i and no range read that does not, a
// clean range read touches only its covering chunks on disk, and the
// whole-record verifiers (Get, VerifyAll — what the scrubber runs)
// still find the rot wherever it sits.
func TestChunkRotIsLocalToCoveringRanges(t *testing.T) {
	const chunks = 4 // plus the short tail chunk
	for rot := 0; rot <= chunks; rot++ {
		reg := telemetry.NewRegistry()
		s, data := rotRecord(t, reg, chunks)
		n := int64(len(data))
		if err := s.Corrupt(1, int64(rot)*ChunkSize+5); err != nil {
			t.Fatal(err)
		}
		readBytes := func() int64 { return reg.Snapshot().Counters["extent_read_bytes_total"] }
		// Every range with ends on or one byte either side of a chunk
		// boundary.
		var cuts []int64
		for c := int64(0); c <= chunks+1; c++ {
			for _, d := range []int64{-1, 0, 1} {
				if p := c*ChunkSize + d; p >= 0 && p <= n {
					cuts = append(cuts, p)
				}
			}
		}
		cuts = append(cuts, n)
		for _, off := range cuts {
			for _, end := range cuts {
				if end <= off {
					continue
				}
				first, last := off/ChunkSize, (end-1)/ChunkSize
				covers := first <= int64(rot) && int64(rot) <= last
				before := readBytes()
				got, err := s.ReadRangeInto(1, off, end-off, nil)
				switch {
				case covers && !errors.Is(err, ErrCorrupt):
					t.Fatalf("rot in chunk %d: range [%d,%d) covering it returned %v", rot, off, end, err)
				case !covers && (err != nil || !bytes.Equal(got, data[off:end])):
					t.Fatalf("rot in chunk %d: range [%d,%d) not covering it failed: %v", rot, off, end, err)
				}
				if want := min((last+1)*ChunkSize, n) - first*ChunkSize; readBytes()-before != want {
					t.Fatalf("range [%d,%d) read %d payload bytes from disk, want %d", off, end, readBytes()-before, want)
				}
			}
		}
		if _, err := s.Get(1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("rot in chunk %d: whole read returned %v", rot, err)
		}
		if bad, err := s.VerifyAll(); err != nil || len(bad) != 1 || bad[0] != 1 {
			t.Fatalf("rot in chunk %d: VerifyAll = %v, %v; want [1]", rot, bad, err)
		}
		if reg.Snapshot().Counters["extent_crc_failures_total"] == 0 {
			t.Fatal("CRC failures not counted")
		}
	}
}

// TestTableRotFailsOneRecord: a flipped bit in a record's chunk table
// makes every read of that record ErrCorrupt — the header's CRC of the
// table catches it even for ranges whose own entries are intact — and
// no other record's; it survives a re-scan and a compaction.
func TestTableRotFailsOneRecord(t *testing.T) {
	s, data := rotRecord(t, nil, 3)
	dir := s.Dir()
	loc := s.index[1]
	tableOff := loc.payloadOff - int64(len(loc.table))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(lastSegment(t, dir), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], tableOff+4*3); err != nil { // the last entry
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], tableOff+4*3); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, dir, Options{SegmentBytes: 1})
	check := func(when string) {
		t.Helper()
		if s.Len() != 2 {
			t.Fatalf("%s: %d records indexed, want 2 (table rot is not a torn tail)", when, s.Len())
		}
		for _, r := range [][2]int64{{0, 10}, {0, int64(len(data))}, {3 * ChunkSize, 10}} {
			if _, err := s.ReadRangeInto(1, r[0], r[1], nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: range [%d,+%d) of the record with a rotted table: %v", when, r[0], r[1], err)
			}
		}
		if got, err := s.Get(2); err != nil || !bytes.Equal(got, data[:ChunkSize]) {
			t.Fatalf("%s: neighbour unreadable: %v", when, err)
		}
	}
	check("after re-scan")
	// SegmentBytes 1 seals a segment per append, so both records sit in
	// sealed segments once one more lands.
	if err := s.Put(3, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(3); err != nil {
		t.Fatal(err)
	}
	if cs, err := s.Compact(); err != nil || cs.RecordsCopied != 2 {
		t.Fatalf("Compact = %+v, %v", cs, err)
	}
	check("after compaction")
}

// TestReadAllocatesOnlyWithoutABuffer pins the lent-buffer contract: a
// range read into a buffer that holds the payload allocates nothing.
func TestReadAllocatesOnlyWithoutABuffer(t *testing.T) {
	s, data := rotRecord(t, nil, 8)
	dst := make([]byte, len(data))
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.ReadRangeInto(1, 3*ChunkSize+7, 2*ChunkSize, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("range read into a lent buffer allocates %.0f times", allocs)
	}
}
