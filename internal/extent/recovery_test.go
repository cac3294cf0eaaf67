package extent

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("listSegments: %v (%d found)", err, len(seqs))
	}
	return filepath.Join(dir, segmentName(seqs[len(seqs)-1]))
}

// buildStore writes n records into dir and returns their contents plus
// the byte range [recStart, fileEnd) the LAST record occupies in the
// final segment.
func buildStore(t *testing.T, dir string, n int) (contents map[int64][]byte, recStart, fileEnd int64) {
	t.Helper()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	contents = make(map[int64][]byte)
	for i := int64(0); i < int64(n); i++ {
		data := make([]byte, rng.Intn(200)+40)
		rng.Read(data)
		if err := s.Put(i, data); err != nil {
			t.Fatal(err)
		}
		contents[i] = data
	}
	last := contents[int64(n-1)]
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(lastSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	fileEnd = fi.Size()
	recStart = fileEnd - headerLen - tableLen(int64(len(last))) - int64(len(last))
	return contents, recStart, fileEnd
}

// TestCrashMidAppendEveryByteBoundary is the satellite crash-recovery
// table: the last record is torn at EVERY byte boundary — mid-header,
// exactly at the header/table and table/payload seams of the v2 record,
// and mid-payload — and each truncation must reopen without error,
// recover every complete record, and discard the tail exactly once in
// telemetry.
func TestCrashMidAppendEveryByteBoundary(t *testing.T) {
	master := t.TempDir()
	contents, recStart, fileEnd := buildStore(t, master, 6)
	segName := filepath.Base(lastSegment(t, master))
	raw, err := os.ReadFile(lastSegment(t, master))
	if err != nil {
		t.Fatal(err)
	}

	for cut := recStart; cut < fileEnd; cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut-recStart), func(t *testing.T) {
			dir := t.TempDir()
			// Clone the master store with the last segment truncated at cut.
			seqs, err := listSegments(master)
			if err != nil {
				t.Fatal(err)
			}
			for _, seq := range seqs {
				src, err := os.ReadFile(filepath.Join(master, segmentName(seq)))
				if err != nil {
					t.Fatal(err)
				}
				if segmentName(seq) == segName {
					src = raw[:cut]
				}
				if err := os.WriteFile(filepath.Join(dir, segmentName(seq)), src, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			reg := telemetry.NewRegistry()
			s, err := Open(Options{Dir: dir, Telemetry: reg})
			if err != nil {
				t.Fatalf("torn tail at +%d bytes failed open: %v", cut-recStart, err)
			}
			defer s.Close()
			if got, want := s.Len(), len(contents)-1; got != want {
				t.Fatalf("recovered %d records, want %d", got, want)
			}
			for id, data := range contents {
				if id == int64(len(contents)-1) {
					if s.Has(id) {
						t.Fatalf("torn record %d resurfaced", id)
					}
					continue
				}
				got, err := s.Get(id)
				if err != nil {
					t.Fatalf("Get(%d): %v", id, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("Get(%d): content differs", id)
				}
			}
			// Zero bytes of the record present is a clean end, not a torn
			// tail; any partial bytes must count exactly one truncation.
			wantTorn := int64(1)
			if cut == recStart {
				wantTorn = 0
			}
			if n := reg.Snapshot().Counters["extent_torn_tails_total"]; n != wantTorn {
				t.Fatalf("torn tails counted = %d, want %d", n, wantTorn)
			}
			// The tail was physically truncated: appends after recovery
			// land where the valid prefix ended and survive a re-scan.
			if err := s.Put(999, []byte("post-recovery append")); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			got, err := re.Get(999)
			if err != nil || !bytes.Equal(got, []byte("post-recovery append")) {
				t.Fatalf("post-recovery append lost: %v", err)
			}
		})
	}
}

// TestGarbageTailTruncated: a crash can also leave preallocated or
// scribbled bytes after the last full record; random garbage must be
// discarded like a torn header.
func TestGarbageTailTruncated(t *testing.T) {
	dir := t.TempDir()
	contents, _, _ := buildStore(t, dir, 4)
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, 100)
	rand.New(rand.NewSource(13)).Read(garbage)
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	s, err := Open(Options{Dir: dir, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != len(contents) {
		t.Fatalf("recovered %d records, want %d", s.Len(), len(contents))
	}
	for id, data := range contents {
		got, err := s.Get(id)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get(%d) after garbage tail: %v", id, err)
		}
	}
	if n := reg.Snapshot().Counters["extent_torn_tails_total"]; n != 1 {
		t.Fatalf("torn tails counted = %d, want 1", n)
	}
}

// TestEmptySegmentFileRecovers: a crash between segment creation and
// the first append leaves a zero-byte file.
func TestEmptySegmentFileRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 0 {
		t.Fatalf("empty store recovered %d records", re.Len())
	}
}

// FuzzScanSegment feeds the recovery scanner arbitrary bytes as a
// segment file: it must never panic, never fail the open, and the
// store it produces must be internally consistent (every indexed
// record readable or typed-corrupt, and a second scan of the truncated
// file must agree with the first).
func FuzzScanSegment(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 200))
	// A valid record followed by garbage.
	var hdr [headerLen]byte
	encodeHeader(hdr[:], magicPut, 7, 3, 0x352441c2) // CRC-32("abc")
	f.Add(append(append(append([]byte{}, hdr[:]...), []byte("abc")...), 0xDE, 0xAD))
	// A truncated valid header.
	f.Add(hdr[:headerLen-5])
	// A tombstone with a bogus non-zero length.
	var del [headerLen]byte
	encodeHeader(del[:], magicDel, 7, 9, 0)
	f.Add(del[:])
	// A valid v2 record, then the same record with its table cut short
	// and with a rotted table (indexed, reads as corrupt).
	v2 := encodeV2(7, []byte("abc"))
	f.Add(v2)
	f.Add(v2[:headerLen+2])
	rotted := append([]byte{}, v2...)
	rotted[headerLen] ^= 0xFF
	f.Add(rotted)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("garbage segment failed open: %v", err)
		}
		ids := s.IDs()
		for _, id := range ids {
			if _, err := s.Get(id); err != nil && !IsCorrupt(err) {
				t.Fatalf("indexed record %d unreadable: %v", id, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("re-scan of truncated segment failed: %v", err)
		}
		defer re.Close()
		if got, want := len(re.IDs()), len(ids); got != want {
			t.Fatalf("re-scan index size %d != first scan %d", got, want)
		}
	})
}

// TestOpenReadsHeadersNotPayloads: reopening a store reads each record's
// header and chunk table and skips its payload, so a datanode restart
// costs O(records), not O(bytes on disk). The bytes are the process's
// read(2)/pread(2) total, rchar in /proc/self/io.
func TestOpenReadsHeadersNotPayloads(t *testing.T) {
	rchar := func() int64 {
		b, err := os.ReadFile("/proc/self/io")
		if err != nil {
			t.Skipf("no /proc/self/io to count read bytes: %v", err)
		}
		var n int64
		if _, err := fmt.Sscanf(string(b), "rchar: %d", &n); err != nil {
			t.Fatalf("parse /proc/self/io: %v", err)
		}
		return n
	}
	rchar()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const records, size = 64, 256 << 10 // 16 MiB of payload
	data := make([]byte, size)
	for i := int64(0); i < records; i++ {
		data[0] = byte(i)
		if err := s.Put(i, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := rchar()
	s, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	read := rchar() - before
	defer s.Close()
	if read >= 1<<20 {
		t.Fatalf("Open read %d bytes to index %d records of %d bytes, want < 1 MiB", read, records, size)
	}
	for _, id := range []int64{0, records - 1} {
		if got, err := s.Get(id); err != nil || len(got) != size || got[0] != byte(id) {
			t.Fatalf("record %d after reopening: %d bytes, %v", id, len(got), err)
		}
	}
}
