//go:build unix

package extent

import (
	"bytes"
	"errors"
	"math/rand"
	"syscall"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// sendPayload returns n seeded bytes.
func sendPayload(n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(p)
	return p
}

// preadAll reads n bytes at off of the file fd, as a send would.
func preadAll(t *testing.T, fd uintptr, off, n int64) []byte {
	t.Helper()
	buf := make([]byte, n)
	if k, err := syscall.Pread(int(fd), buf, off); err != nil || int64(k) != n {
		t.Fatalf("pread of the sent file: %d bytes, %v", k, err)
	}
	return buf
}

// TestSendHandsOverTheStoredBytes: Send calls its SendFunc with the
// payload's place in its segment file — the bytes there are the
// block's, unread by the store — and counts them as read bytes. An
// unknown block or a closed store is an error, and send is not called.
func TestSendHandsOverTheStoredBytes(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTest(t, t.TempDir(), Options{Telemetry: reg})
	want := sendPayload(3*ChunkSize + 7)
	if err := s.Put(1, sendPayload(100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, want); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(2, func(fd uintptr, off, n int64) error {
		if n != int64(len(want)) {
			t.Fatalf("send of %d bytes, want %d", n, len(want))
		}
		if got := preadAll(t, fd, off, n); !bytes.Equal(got, want) {
			t.Fatal("the sent range is not the block's payload")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["extent_read_bytes_total"]; got != int64(len(want)) {
		t.Fatalf("extent_read_bytes_total = %d, want %d", got, len(want))
	}
	refuse := func(fd uintptr, off, n int64) error {
		t.Fatal("send called for a block the store cannot send")
		return nil
	}
	if err := s.Send(3, refuse); !errors.Is(err, ErrNotFound) {
		t.Fatalf("send of an unknown block: %v", err)
	}
	sendErr := errors.New("socket gone")
	if err := s.Send(2, func(uintptr, int64, int64) error { return sendErr }); !errors.Is(err, sendErr) {
		t.Fatalf("a failed send came back as %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(2, refuse); !errors.Is(err, ErrClosed) {
		t.Fatalf("send from a closed store: %v", err)
	}
}

// TestSendHoldsNoLockAndKeepsItsFile: the store lock is released before
// the send runs — a compaction and an Abandon (a crash) both run from
// inside it — and the descriptor stays open on the file the send began
// on: after the compaction has moved the block and deleted that
// segment, and after the crash has closed every handle, the send still
// reads the block's own bytes, never another file's.
func TestSendHoldsNoLockAndKeepsItsFile(t *testing.T) {
	for _, retire := range []struct {
		name string
		run  func(*Store) error
	}{
		{"compaction", func(s *Store) error { _, err := s.Compact(); return err }},
		{"crash", (*Store).Abandon},
	} {
		t.Run(retire.name, func(t *testing.T) {
			s := openTest(t, t.TempDir(), Options{SegmentBytes: 2 * ChunkSize})
			want := sendPayload(ChunkSize + 9)
			if err := s.Put(1, want); err != nil {
				t.Fatal(err)
			}
			// Seal the block's segment and kill a record in it, so the
			// compaction has a file to retire.
			for id := int64(2); id < 4; id++ {
				if err := s.Put(id, sendPayload(ChunkSize)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Delete(3); err != nil {
				t.Fatal(err)
			}
			if err := s.Send(1, func(fd uintptr, off, n int64) error {
				if err := retire.run(s); err != nil {
					t.Fatal(err)
				}
				// Files opened now must not take the descriptor's number.
				if err := s.Put(9, sendPayload(2*ChunkSize)); err != nil && !errors.Is(err, ErrClosed) {
					t.Fatal(err)
				}
				if got := preadAll(t, fd, off, n); !bytes.Equal(got, want) {
					t.Fatalf("after the %s, the send reads other bytes", retire.name)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAbandonSyncsNothing: Abandon closes the store as a crash would,
// without an fsync, and a reopen reads back every block put before it.
func TestAbandonSyncsNothing(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	s := openTest(t, dir, Options{Telemetry: reg})
	want := map[int64][]byte{1: sendPayload(10), 2: sendPayload(2*ChunkSize + 1)}
	for id, p := range want {
		if err := s.Put(id, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Abandon(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Histograms["extent_fsync_seconds"].Count; n != 0 {
		t.Fatalf("Abandon ran %d fsyncs", n)
	}
	if _, err := s.Get(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("a read from an abandoned store: %v", err)
	}
	re := openTest(t, dir, Options{})
	for id, p := range want {
		if got, err := re.Get(id); err != nil || !bytes.Equal(got, p) {
			t.Fatalf("block %d after the reopen: %v", id, err)
		}
	}
}

// TestSendsFromOneSegmentRunSideBySide: a send that waits inside its
// SendFunc — a reader whose socket is full — holds up no other send
// from the same segment file.
func TestSendsFromOneSegmentRunSideBySide(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	for id := int64(1); id <= 2; id++ {
		if err := s.Put(id, sendPayload(int(id)*ChunkSize)); err != nil {
			t.Fatal(err)
		}
	}
	entered, release := make(chan struct{}), make(chan struct{})
	stalled := make(chan error, 1)
	go func() {
		stalled <- s.Send(1, func(uintptr, int64, int64) error {
			close(entered)
			<-release
			return nil
		})
	}()
	<-entered
	done := make(chan error, 1)
	go func() {
		done <- s.Send(2, func(fd uintptr, off, n int64) error {
			buf := make([]byte, n)
			if _, err := syscall.Pread(int(fd), buf, off); err != nil {
				return err
			}
			if !bytes.Equal(buf, sendPayload(2*ChunkSize)) {
				return errors.New("the second send reads other bytes")
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a send waits behind another send from the same segment")
	}
	close(release)
	if err := <-stalled; err != nil {
		t.Fatal(err)
	}
}

// TestSendAllocatesNothing: a Send hands its arguments to the file's
// RawConn.Control through pooled state bound once (sendCall), not a
// closure made per call, so a send whose SendFunc is bound once
// allocates nothing.
func TestSendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	s := openTest(t, t.TempDir(), Options{})
	if err := s.Put(1, sendPayload(2*ChunkSize)); err != nil {
		t.Fatal(err)
	}
	var sent int64
	send := SendFunc(func(_ uintptr, _, n int64) error { sent += n; return nil })
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.Send(1, send); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a Send allocates %v objects, want 0", allocs)
	}
	if sent != 101*2*ChunkSize {
		t.Fatalf("sent %d bytes over 101 sends of %d", sent, 2*ChunkSize)
	}
}
