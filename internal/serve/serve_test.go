package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/extent"
	"repro/internal/hdfs"
	"repro/internal/lrc"
	"repro/internal/rs"
	"repro/internal/telemetry"
	"repro/internal/testutil/leakcheck"
)

// testCodecs returns the three codecs the paper compares, sized small
// so a localhost cluster stays quick.
func testCodecs(t *testing.T) []ec.Code {
	t.Helper()
	rsc, err := rs.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := core.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := lrc.New(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []ec.Code{rsc, pb, lc}
}

func startTestSystem(t *testing.T, code ec.Code, opts ...Option) *System {
	t.Helper()
	return startSystem(t, testConfig(code), opts...)
}

// testConfig is the cluster startTestSystem runs: two racks beyond the
// stripe width, two machines a rack, 4 KiB blocks, three replicas.
func testConfig(code ec.Code) hdfs.Config {
	return hdfs.Config{
		Topology:    cluster.Topology{Racks: code.TotalShards() + 2, MachinesPerRack: 2},
		Code:        code,
		BlockSize:   4096,
		Replication: 3,
		Seed:        7,
	}
}

// startSystem starts cfg and closes it at cleanup.
func startSystem(t testing.TB, cfg hdfs.Config, opts ...Option) *System {
	t.Helper()
	// Registered before sys.Close so the leak verdict runs after it:
	// a handler or fixer goroutine that Close fails to reap fails the
	// test here instead of poisoning the next one.
	leakcheck.Cleanup(t)
	sys, err := Start(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

// onDisk backs every datanode of cfg with an extent store under a test
// temp dir, syncing on an interval; the stores' instruments land on the
// returned registry.
func onDisk(t testing.TB, cfg hdfs.Config) (hdfs.Config, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	cfg.StoreFactory = hdfs.ExtentStoreFactory(t.TempDir(), extent.Options{Fsync: extent.FsyncInterval, Telemetry: reg})
	return cfg, reg
}

// TestWriteReadRoundTrip covers the healthy path: bytes written over
// the wire come back identical, replica reads spread across holders.
func TestWriteReadRoundTrip(t *testing.T) {
	for _, code := range testCodecs(t) {
		t.Run(code.Name(), func(t *testing.T) {
			sys := startTestSystem(t, code)
			cl, err := Dial(sys.NameAddr(), code)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			rng := rand.New(rand.NewSource(1))
			data := make([]byte, 3*4096+123) // 4 blocks, ragged tail
			rng.Read(data)
			if err := cl.WriteFile("f", data); err != nil {
				t.Fatal(err)
			}
			got, err := cl.ReadFile("f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("read returned %d bytes, mismatch with %d written", len(got), len(data))
			}
			c := cl.Counters()
			if c.Reads != 1 || c.Writes != 1 || c.BlocksRead != 4 || c.DegradedBlocks != 0 {
				t.Fatalf("unexpected counters %+v", c)
			}
		})
	}
}

// TestCodecMismatchRejected: the dial handshake enforces the client's
// codec matches the cluster's.
func TestCodecMismatchRejected(t *testing.T) {
	codes := testCodecs(t)
	sys := startTestSystem(t, codes[0])
	if _, err := Dial(sys.NameAddr(), codes[1]); err == nil {
		t.Fatal("dial with mismatched codec succeeded")
	}
}

// killUnderLoad is the closed loop behind the kill-under-load tests.
// Four clients each loop over reads of the raided file "f" (verified
// byte for byte against data) with every fourth operation a write of a
// fresh file; once reads are demonstrably in flight the holder of f's
// first block is killed, and the loop runs on until eight more reads
// completed and recovered() holds. No wall clocks pace it: each
// completed read signals progress, however fast or slow the host is.
// Any client-visible error fails the test. It returns the degraded
// block reads summed over the four clients.
func killUnderLoad(t *testing.T, sys *System, data []byte, recovered func() bool) int64 {
	t.Helper()
	code := sys.Code()
	_, blocks, err := sys.Cluster().FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	victim := blocks[0].Locations[0]
	var completed, degraded atomic.Int64
	progress := make(chan struct{}, 1)
	var wg sync.WaitGroup
	errs := make(chan error, 4) // each client reports at most one error
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rcl, err := Dial(sys.NameAddr(), code)
			if err != nil {
				errs <- err
				return
			}
			defer rcl.Close()
			defer func() { degraded.Add(rcl.Counters().DegradedBlocks) }()
			for op := 0; ; op++ {
				select {
				case <-stop:
					return
				default:
				}
				if op%4 == 3 {
					if err := rcl.WriteFile(fmt.Sprintf("w-%d-%d", w, op), data[:4096+w]); err != nil {
						errs <- fmt.Errorf("client %d write: %w", w, err)
						return
					}
					continue
				}
				got, err := rcl.ReadFile("f")
				if err != nil {
					errs <- fmt.Errorf("client %d read: %w", w, err)
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("client %d: content mismatch", w)
					return
				}
				completed.Add(1)
				select {
				case progress <- struct{}{}:
				default:
				}
			}
		}(w)
	}
	// If every client exits on error, the wait must fail fast with the
	// collected errors instead of hanging on progress that will never
	// come; the deadline only bounds a recovery that never happens.
	clientsDone := make(chan struct{})
	go func() { wg.Wait(); close(clientsDone) }()
	deadline := time.After(60 * time.Second)
	waitProgress := func() bool {
		select {
		case <-progress:
			return true
		case <-clientsDone:
			return false
		case <-deadline:
			t.Error("timed out waiting for the cluster to recover under load")
			return false
		}
	}
	alive := waitProgress() // at least one whole-file read completed
	if alive {
		if err := sys.KillDataNode(victim); err != nil {
			t.Fatal(err)
		}
		for target := completed.Load() + 8; alive && (completed.Load() < target || !recovered()); {
			alive = waitProgress() // post-kill reads complete degraded
		}
	}
	close(stop)
	<-clientsDone
	close(errs)
	failed := t.Failed()
	for err := range errs {
		failed = true
		t.Errorf("client-visible error during kill: %v", err)
	}
	if !alive && !failed {
		t.Fatal("clients exited early without reporting errors")
	}
	return degraded.Load()
}

// TestDegradedReadAfterKill is the serving layer's core claim, per
// codec: kill the datanode holding a data block — while reads and
// writes are in flight — and every operation still succeeds, reads
// byte-identical, only degraded block reads.
func TestDegradedReadAfterKill(t *testing.T) {
	for _, code := range testCodecs(t) {
		t.Run(code.Name(), func(t *testing.T) {
			sys := startTestSystem(t, code)
			cl, err := Dial(sys.NameAddr(), code)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			rng := rand.New(rand.NewSource(2))
			data := make([]byte, 6*4096) // spans stripes for k=4
			rng.Read(data)
			if err := cl.WriteFile("f", data); err != nil {
				t.Fatal(err)
			}
			if err := cl.RaidFile("f"); err != nil {
				t.Fatal(err)
			}
			if got, err := cl.ReadFile("f"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("healthy post-raid read broken: %v", err)
			}

			if n := killUnderLoad(t, sys, data, func() bool { return true }); n == 0 {
				t.Fatal("mid-run kill produced no degraded block reads")
			}

			// A fresh read after the kill must be byte-identical and
			// must have taken the degraded path for the lost block.
			got, err := cl.ReadFile("f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("post-kill read is not byte-identical")
			}
			if c := cl.Counters(); c.DegradedBlocks == 0 {
				t.Fatalf("expected degraded block reads after kill, counters %+v", c)
			}
		})
	}
}

// TestFixerRestoresHealthyReads: after a wire-driven fixer pass, reads
// stop being degraded — the block was reconstructed onto a live
// machine and the namenode serves its new location.
func TestFixerRestoresHealthyReads(t *testing.T) {
	code := testCodecs(t)[1] // piggybacked-rs
	sys := startTestSystem(t, code)
	cl, err := Dial(sys.NameAddr(), code)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	data := bytes.Repeat([]byte("warehouse"), 2048)
	if err := cl.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := cl.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	_, blocks, err := sys.Cluster().FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.KillDataNode(blocks[0].Locations[0]); err != nil {
		t.Fatal(err)
	}
	rep, err := cl.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairedStriped == 0 || rep.Unrecoverable != 0 {
		t.Fatalf("fixer report %+v", rep)
	}
	before := cl.Counters().DegradedBlocks
	got, err := cl.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-fix read is not byte-identical")
	}
	if after := cl.Counters().DegradedBlocks; after != before {
		t.Fatalf("post-fix read still degraded (%d -> %d)", before, after)
	}
}

// TestRestartDataNode: a restarted daemon comes back on a fresh port
// and clients rediscover it through the namenode.
func TestRestartDataNode(t *testing.T) {
	code := testCodecs(t)[0]
	sys := startTestSystem(t, code)
	cl, err := Dial(sys.NameAddr(), code)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	data := bytes.Repeat([]byte("x"), 4096)
	if err := cl.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	_, blocks, err := sys.Cluster().FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range blocks[0].Locations {
		if err := cl.FailMachine(m); err != nil {
			t.Fatal(err)
		}
	}
	// Replication 3, all holders dead, unstriped: the read must fail.
	if _, err := cl.ReadFile("f"); err == nil {
		t.Fatal("read of fully-failed unstriped file succeeded")
	}
	for _, m := range blocks[0].Locations {
		if err := cl.RestoreMachine(m); err != nil {
			t.Fatal(err)
		}
	}
	got, err := cl.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-restart read is not byte-identical")
	}
}

// TestClientFollowsRestartedDataNode is the regression for a client
// dialled before a restart: the daemon comes back on a fresh port, the
// client still holds the old one, its healthy read fails to connect and
// falls through to a degraded read that SUCCEEDS — so nothing ever
// refreshed the address table and every later read of that machine's
// blocks reconstructed, forever. The same client's reads after the
// restart must be healthy again, whether or not it called the machine
// while it was down (a call then empties the machine's table entry,
// and only a further refresh learns the new address).
func TestClientFollowsRestartedDataNode(t *testing.T) {
	for _, tc := range []struct {
		name          string
		callWhileDown bool
	}{
		{"idle during the outage", false},
		{"call during the outage", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code := testCodecs(t)[1] // piggybacked-rs
			sys := startTestSystem(t, code)
			cl, err := Dial(sys.NameAddr(), code)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			data := bytes.Repeat([]byte("warehouse"), 2048)
			if err := cl.WriteFile("f", data); err != nil {
				t.Fatal(err)
			}
			if err := cl.RaidFile("f"); err != nil {
				t.Fatal(err)
			}
			read := func(stage string) int64 {
				t.Helper()
				before := cl.Counters().DegradedBlocks
				got, err := cl.ReadFile("f")
				if err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("%s: read is not byte-identical", stage)
				}
				return cl.Counters().DegradedBlocks - before
			}
			if n := read("healthy"); n != 0 {
				t.Fatalf("healthy read reconstructed %d blocks", n)
			}
			_, blocks, err := sys.Cluster().FileBlocks("f")
			if err != nil {
				t.Fatal(err)
			}
			victim := blocks[0].Locations[0]
			if err := sys.KillDataNode(victim); err != nil {
				t.Fatal(err)
			}
			if tc.callWhileDown {
				// What a read in flight during the kill does: the call
				// fails, the client refreshes, the table now says "".
				if _, err := cl.dnRead(victim, int64(blocks[0].ID), 0, 1, nil, nil); err == nil {
					t.Fatal("a call to the dead machine succeeded")
				}
				cl.mu.Lock()
				addr := cl.addrs[victim]
				cl.mu.Unlock()
				if addr != "" {
					t.Fatalf("the failed call left address %q for the dead machine", addr)
				}
			}
			if n := read("victim down"); n == 0 {
				t.Fatal("read with the holder down reconstructed nothing")
			}
			if err := sys.RestartDataNode(victim); err != nil {
				t.Fatal(err)
			}
			if tc.callWhileDown {
				// Refreshes are rate-limited per machine; the one made
				// during the outage must age out before the next.
				time.Sleep(addrRefreshEvery)
			}
			for i := 0; i < 3; i++ {
				if n := read("after restart"); n != 0 {
					t.Fatalf("read %d after the restart still reconstructed %d blocks: the client kept the stale address", i, n)
				}
			}
		})
	}
}

// TestFrameSizeGuards: hostile frame lengths are rejected, not
// allocated.
func TestFrameSizeGuards(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &request{Method: "x"}, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the payload length to something absurd.
	b := buf.Bytes()
	b[4], b[5], b[6], b[7] = 0xFF, 0xFF, 0xFF, 0xFF
	var req request
	if _, err := readFrame(bytes.NewReader(b), &req, nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if !strings.Contains(fmt.Sprint(errFrameTooLarge), "size bound") {
		t.Fatal("unexpected sentinel text")
	}
}
