package extent

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetDeleteRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	rng := rand.New(rand.NewSource(1))
	want := make(map[int64][]byte)
	for i := int64(0); i < 50; i++ {
		data := make([]byte, rng.Intn(4096)+1)
		rng.Read(data)
		if err := s.Put(i, data); err != nil {
			t.Fatal(err)
		}
		want[i] = data
	}
	// Overwrite half, delete a quarter.
	for i := int64(0); i < 25; i++ {
		data := make([]byte, rng.Intn(4096)+1)
		rng.Read(data)
		if err := s.Put(i, data); err != nil {
			t.Fatal(err)
		}
		want[i] = data
	}
	for i := int64(0); i < 12; i++ {
		if err := s.Delete(i); err != nil {
			t.Fatal(err)
		}
		delete(want, i)
	}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	var wantBytes int64
	for id, data := range want {
		got, err := s.Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("Get(%d): content differs", id)
		}
		wantBytes += int64(len(data))
	}
	if s.StoredBytes() != wantBytes {
		t.Fatalf("StoredBytes = %d, want %d", s.StoredBytes(), wantBytes)
	}
	if _, err := s.Get(5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(deleted) = %v, want ErrNotFound", err)
	}
	if s.Has(5) || !s.Has(30) {
		t.Fatal("Has disagrees with index state")
	}
}

// TestReopenRebuildsIndex is the core recovery property, under every
// fsync policy: close, reopen, and the sequential scan reproduces
// exactly the pre-close state — including overwrites (latest wins) and
// tombstones (stay dead) — with every recovered payload passing its
// record CRC.
func TestReopenRebuildsIndex(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncNever, FsyncInterval, FsyncAlways} {
		t.Run(p.String(), func(t *testing.T) { reopenRebuildsIndex(t, p) })
	}
}

func reopenRebuildsIndex(t *testing.T, policy FsyncPolicy) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	s := openTest(t, dir, Options{SegmentBytes: 2048, Fsync: policy}) // force several segments
	rng := rand.New(rand.NewSource(2))
	want := make(map[int64][]byte)
	for i := int64(0); i < 40; i++ {
		data := make([]byte, rng.Intn(700)+1)
		rng.Read(data)
		if err := s.Put(i, data); err != nil {
			t.Fatal(err)
		}
		want[i] = data
	}
	for i := int64(0); i < 10; i++ {
		data := []byte(fmt.Sprintf("overwrite-%d", i))
		if err := s.Put(i, data); err != nil {
			t.Fatal(err)
		}
		want[i] = data
	}
	for i := int64(30); i < 35; i++ {
		if err := s.Delete(i); err != nil {
			t.Fatal(err)
		}
		delete(want, i)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTest(t, dir, Options{SegmentBytes: 2048, Fsync: policy, Telemetry: reg})
	if re.Len() != len(want) {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), len(want))
	}
	for id, data := range want {
		got, err := re.Get(id)
		if err != nil {
			t.Fatalf("Get(%d) after reopen: %v", id, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("Get(%d) after reopen: content differs", id)
		}
	}
	if corrupt, err := re.VerifyAll(); err != nil || len(corrupt) != 0 {
		t.Fatalf("VerifyAll after reopen: %d corrupt payloads, err %v", len(corrupt), err)
	}
	snap := reg.Snapshot()
	if n := snap.Counters["extent_crc_failures_total"]; n != 0 {
		t.Fatalf("clean reopen counted %d CRC failures", n)
	}
	if snap.Counters["extent_scan_records_total"] == 0 {
		t.Fatal("reopen scan counted no records")
	}
	if snap.Counters["extent_torn_tails_total"] != 0 {
		t.Fatal("clean reopen counted a torn tail")
	}
	if re.Stats().Segments < 2 {
		t.Fatalf("expected rolled segments, got %+v", re.Stats())
	}
}

func TestCompactionReclaimsAndPreserves(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 1024})
	rng := rand.New(rand.NewSource(3))
	want := make(map[int64][]byte)
	for round := 0; round < 6; round++ {
		for i := int64(0); i < 10; i++ {
			data := make([]byte, rng.Intn(300)+1)
			rng.Read(data)
			if err := s.Put(i, data); err != nil {
				t.Fatal(err)
			}
			want[i] = data
		}
	}
	for i := int64(7); i < 10; i++ {
		if err := s.Delete(i); err != nil {
			t.Fatal(err)
		}
		delete(want, i)
	}
	before := s.Stats()
	if before.GarbageBytes == 0 || before.Segments < 3 {
		t.Fatalf("test did not build garbage: %+v", before)
	}
	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.SegmentsRemoved == 0 || cs.BytesReclaimed <= 0 || cs.RecordsCopied == 0 {
		t.Fatalf("compaction did nothing: %+v", cs)
	}
	check := func(st *Store) {
		t.Helper()
		if st.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", st.Len(), len(want))
		}
		for id, data := range want {
			got, err := st.Get(id)
			if err != nil {
				t.Fatalf("Get(%d): %v", id, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("Get(%d): content differs", id)
			}
		}
	}
	check(s)
	// A post-compaction rescan must agree: no tombstone semantics were
	// lost with the sealed segments.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check(openTest(t, dir, Options{SegmentBytes: 1024}))
}

func TestCorruptAndVerifyAll(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTest(t, t.TempDir(), Options{Telemetry: reg})
	for i := int64(0); i < 5; i++ {
		if err := s.Put(i, bytes.Repeat([]byte{byte(i + 1)}, 256)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Corrupt(3, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get(corrupted) = %v, want ErrCorrupt", err)
	}
	if _, err := s.Get(2); err != nil {
		t.Fatalf("neighbour of corrupted record unreadable: %v", err)
	}
	bad, err := s.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0] != 3 {
		t.Fatalf("VerifyAll = %v, want [3]", bad)
	}
	if reg.Snapshot().Counters["extent_crc_failures_total"] == 0 {
		t.Fatal("CRC failures not counted")
	}
}

// TestCorruptionSurvivesCompaction: compaction copies payloads verbatim
// with their original CRC, so bit rot in a sealed segment is still
// detected after its record moves — never silently re-blessed.
func TestCorruptionSurvivesCompaction(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{SegmentBytes: 512})
	for i := int64(0); i < 8; i++ {
		if err := s.Put(i, bytes.Repeat([]byte{byte(i + 1)}, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Segments < 2 {
		t.Fatalf("victim record not in a sealed segment: %+v", s.Stats())
	}
	if err := s.Corrupt(0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get(corrupted) after compaction = %v, want ErrCorrupt", err)
	}
	bad, err := s.VerifyAll()
	if err != nil || len(bad) != 1 || bad[0] != 0 {
		t.Fatalf("VerifyAll after compaction = %v, %v; want [0]", bad, err)
	}
}

func TestCorruptErrors(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	if err := s.Put(1, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := s.Corrupt(9, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Corrupt(absent) = %v, want ErrNotFound", err)
	}
	if err := s.Corrupt(1, 3); err == nil {
		t.Fatal("Corrupt past payload end succeeded")
	}
	if err := s.Corrupt(1, -1); err == nil {
		t.Fatal("Corrupt at negative offset succeeded")
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncNever, FsyncInterval, FsyncAlways} {
		t.Run(p.String(), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			s := openTest(t, t.TempDir(), Options{Fsync: p, FsyncEvery: time.Nanosecond, Telemetry: reg})
			for i := int64(0); i < 8; i++ {
				if err := s.Put(i, []byte("payload")); err != nil {
					t.Fatal(err)
				}
			}
			syncs := reg.Snapshot().Histograms["extent_fsync_seconds"].Count
			switch p {
			case FsyncNever:
				if syncs != 0 {
					t.Fatalf("FsyncNever synced %d times mid-run", syncs)
				}
			case FsyncAlways:
				if syncs != 8 {
					t.Fatalf("FsyncAlways synced %d times, want 8", syncs)
				}
			case FsyncInterval:
				if syncs == 0 {
					t.Fatal("FsyncInterval with a 1ns window never synced")
				}
			}
		})
	}
}

func TestClosedStoreRefusesOps(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	if err := s.Put(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, []byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put on closed store = %v", err)
	}
	if _, err := s.Get(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get on closed store = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestPayloadBoundEnforced(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{MaxPayloadBytes: 64})
	if err := s.Put(1, make([]byte, 65)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	if err := s.Put(1, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
}

// TestForeignFilesIgnored: the segment directory may hold stray files
// (editor droppings, future manifests); only seg-NNNNNNNN.ext parse.
func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"seg-1.ext", "notes.txt", "seg-00000001.bak"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openTest(t, dir, Options{})
	if s.Len() != 0 {
		t.Fatalf("foreign files produced %d index entries", s.Len())
	}
	if err := s.Put(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// TestAutoCompactionOnDeadFraction: with CompactAfterDeadFraction
// armed, a delete-heavy workload compacts itself — dead bytes in
// sealed segments are reclaimed with no Compact call, live payloads
// survive, and the garbage ratio stays bounded.
func TestAutoCompactionOnDeadFraction(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTest(t, t.TempDir(), Options{
		SegmentBytes:             1024,
		CompactAfterDeadFraction: 0.5,
		Telemetry:                reg,
	})
	rng := rand.New(rand.NewSource(9))
	want := make(map[int64][]byte)
	// Churn: every round overwrites the same small id set, so almost
	// every sealed byte is dead by the time the segment seals.
	for round := 0; round < 40; round++ {
		for i := int64(0); i < 4; i++ {
			data := make([]byte, rng.Intn(200)+1)
			rng.Read(data)
			if err := s.Put(i, data); err != nil {
				t.Fatal(err)
			}
			want[i] = data
		}
		for i := int64(2); i < 4; i++ {
			if err := s.Delete(i); err != nil {
				t.Fatal(err)
			}
			delete(want, i)
		}
	}
	if got := reg.Snapshot().Counters["extent_compactions_total"]; got == 0 {
		t.Fatalf("delete-heavy store never auto-compacted")
	}
	st := s.Stats()
	if st.Segments > 3 {
		t.Fatalf("auto-compaction left %d segments standing: %+v", st.Segments, st)
	}
	if st.DiskBytes > 0 && float64(st.GarbageBytes) > 0.9*float64(st.DiskBytes) {
		t.Fatalf("garbage ratio unbounded after auto-compaction: %+v", st)
	}
	for id, data := range want {
		got, err := s.Get(id)
		if err != nil {
			t.Fatalf("Get %d after auto-compaction: %v", id, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("block %d corrupted by auto-compaction", id)
		}
	}
	// The policy survives a crash/reopen cycle: the rescanned store
	// keeps compacting itself.
	dir := s.opts.Dir
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Options{
		SegmentBytes:             1024,
		CompactAfterDeadFraction: 0.5,
	})
	for id, data := range want {
		got, err := s2.Get(id)
		if err != nil {
			t.Fatalf("Get %d after reopen: %v", id, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("block %d corrupted across reopen", id)
		}
	}
}

// VerifyAll CRC-checks every byte of every live record, returning the
// ids that fail (ascending). Non-corruption I/O errors abort the sweep.
func (s *Store) VerifyAll() ([]int64, error) {
	var corrupt []int64
	for _, id := range s.IDs() {
		if _, err := s.Get(id); err != nil {
			if errors.Is(err, ErrCorrupt) {
				corrupt = append(corrupt, id)
				continue
			}
			return corrupt, err
		}
	}
	return corrupt, nil
}
