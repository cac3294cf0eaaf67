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

// TestChecksumIsThePayloadCRC: the block CRC Checksum folds from a
// record's chunk table is hash/crc32's of the payload, at lengths around
// the chunk size, for the table Put filled and for the table a reopen
// read back from disk.
func TestChecksumIsThePayloadCRC(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	rng := rand.New(rand.NewSource(61))
	lengths := []int{0, 1, ChunkSize - 1, ChunkSize, ChunkSize + 1, 64 << 10}
	want := make(map[int64]uint32)
	for i, n := range lengths {
		data := make([]byte, n)
		rng.Read(data)
		if err := s.Put(int64(i), data); err != nil {
			t.Fatal(err)
		}
		want[int64(i)] = crc32.ChecksumIEEE(data)
	}
	check := func(s *Store, when string) {
		for i, n := range lengths {
			if got, err := s.Checksum(int64(i)); err != nil || got != want[int64(i)] {
				t.Errorf("%s: Checksum of %d bytes = %08x, %v; want %08x", when, n, got, err, want[int64(i)])
			}
		}
	}
	check(s, "after Put")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check(openTest(t, dir, Options{}), "after reopen")
}

// TestChecksumOfV1Records: a v1 record's header holds its payload's CRC,
// and Checksum answers with it.
func TestChecksumOfV1Records(t *testing.T) {
	dir := t.TempDir()
	want := writeV1Store(t, dir, rand.New(rand.NewSource(62)))
	s := openTest(t, dir, Options{})
	for id, data := range want {
		if got, err := s.Checksum(id); err != nil || got != crc32.ChecksumIEEE(data) {
			t.Errorf("block %d: Checksum = %08x, %v; want %08x", id, got, err, crc32.ChecksumIEEE(data))
		}
	}
}

// TestChecksumRefusesARottedTable: Checksum authenticates the table it
// folds by the header's CRC of it, so rot in the table on disk is
// ErrCorrupt, not a wrong block CRC.
func TestChecksumRefusesARottedTable(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	s := openTest(t, dir, Options{})
	if err := s.Put(1, bytes.Repeat([]byte{7}, 3*ChunkSize)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segmentName(1)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The first record's table starts right after its header.
	if _, err := f.WriteAt([]byte{0xFF}, headerLen+5); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, Options{Telemetry: reg})
	if _, err := s.Checksum(1); !IsCorrupt(err) {
		t.Fatalf("Checksum over a rotted table: %v, want ErrCorrupt", err)
	}
	if got := reg.Snapshot().Counters["extent_crc_failures_total"]; got != 1 {
		t.Fatalf("extent_crc_failures_total = %d, want 1", got)
	}
}

// TestPutCheckedRefusesBeforeWriting: PutChecked stores a payload whose
// CRC is the one expected, like Put, and refuses one whose CRC is not
// with ErrChecksumMismatch before anything reaches the disk: no append
// counted, no byte written, and a block it would have overwritten still
// served.
func TestPutCheckedRefusesBeforeWriting(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTest(t, t.TempDir(), Options{Telemetry: reg})
	rng := rand.New(rand.NewSource(63))
	old := make([]byte, 2*ChunkSize+9)
	rng.Read(old)
	if err := s.PutChecked(1, old, crc32.ChecksumIEEE(old)); err != nil {
		t.Fatal(err)
	}
	appends := func() int64 { return reg.Snapshot().Counters["extent_appends_total"] }
	before, disk := appends(), s.Stats().DiskBytes
	rotted := bytes.Clone(old)
	rotted[ChunkSize+3] ^= 1
	for _, id := range []int64{1, 2} {
		if err := s.PutChecked(id, rotted, crc32.ChecksumIEEE(old)); !errors.Is(err, ErrChecksumMismatch) {
			t.Fatalf("PutChecked(%d) of a payload that does not match: %v, want ErrChecksumMismatch", id, err)
		}
	}
	if got := appends() - before; got != 0 {
		t.Fatalf("refused puts counted %d appends", got)
	}
	if got := s.Stats().DiskBytes; got != disk {
		t.Fatalf("refused puts grew the segments from %d to %d bytes", disk, got)
	}
	if s.Has(2) {
		t.Fatal("a refused put of a new block made it visible")
	}
	if got, err := s.Get(1); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("block 1 after a refused overwrite: %v", err)
	}
}
