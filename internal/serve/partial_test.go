package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPartialSumDegradedRead is the tentpole's end-to-end claim, per
// codec: with the partial-sum pipeline enabled, kill the datanode
// holding a data block while reads are in flight — every read still
// returns byte-identical data, the degraded blocks were served by the
// fold tree (not the conventional fan-in), and the client downloaded
// roughly ONE shard per reconstruction instead of the plan's ~k.
func TestPartialSumDegradedRead(t *testing.T) {
	for _, code := range testCodecs(t) {
		code := code
		t.Run(code.Name(), func(t *testing.T) {
			sys := startTestSystem(t, code)
			cl, err := Dial(sys.NameAddr(), code, WithPartialSumRepair())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			rng := rand.New(rand.NewSource(4))
			data := make([]byte, 6*4096) // spans stripes for k=4
			rng.Read(data)
			if err := cl.WriteFile("f", data); err != nil {
				t.Fatal(err)
			}
			if err := cl.RaidFile("f"); err != nil {
				t.Fatal(err)
			}

			// Readers hammer the file; the kill lands once reads are
			// demonstrably in flight (no wall-clock sleeps: progress is
			// signalled read-by-read).
			_, blocks, err := sys.Cluster().FileBlocks("f")
			if err != nil {
				t.Fatal(err)
			}
			victim := blocks[0].Locations[0]
			var completed atomic.Int64
			progress := make(chan struct{}, 1)
			stop := make(chan struct{})
			errs := make(chan error, 64)
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rcl, err := Dial(sys.NameAddr(), code, WithPartialSumRepair())
					if err != nil {
						errs <- err
						return
					}
					defer rcl.Close()
					for {
						select {
						case <-stop:
							return
						default:
						}
						got, err := rcl.ReadFile("f")
						if err != nil {
							errs <- fmt.Errorf("reader %d: %w", w, err)
							return
						}
						if !bytes.Equal(got, data) {
							errs <- fmt.Errorf("reader %d: content mismatch", w)
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
			// Wait for the first completed healthy read, kill, then wait
			// for several more full reads to complete degraded. If every
			// reader exits on error the wait fails fast instead of
			// hanging on progress that will never come.
			readersDone := make(chan struct{})
			go func() { wg.Wait(); close(readersDone) }()
			waitProgress := func() bool {
				select {
				case <-progress:
					return true
				case <-readersDone:
					return false
				}
			}
			alive := waitProgress()
			if alive {
				if err := sys.KillDataNode(victim); err != nil {
					t.Fatal(err)
				}
				for target := completed.Load() + 6; alive && completed.Load() < target; {
					alive = waitProgress()
				}
			}
			close(stop)
			<-readersDone
			close(errs)
			failed := false
			for err := range errs {
				failed = true
				t.Errorf("read error during kill: %v", err)
			}
			if !alive && !failed {
				t.Fatal("readers exited early without reporting errors")
			}

			// A fresh read after the kill must be byte-identical, served
			// by the partial-sum pipeline, and ~1 shard of download per
			// degraded block.
			before := cl.Counters()
			got, err := cl.ReadFile("f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("post-kill read is not byte-identical")
			}
			after := cl.Counters()
			degraded := after.DegradedBlocks - before.DegradedBlocks
			if degraded == 0 {
				t.Fatalf("expected degraded block reads after kill, counters %+v", after)
			}
			if partial := after.PartialSumBlocks - before.PartialSumBlocks; partial != degraded {
				t.Fatalf("%d of %d degraded reads took the partial-sum path", partial, degraded)
			}
			shardSize := int64(4096) // BlockSize == shard size for full blocks
			bytesFetched := after.DegradedBytesFetched - before.DegradedBytesFetched
			if perBlock := bytesFetched / degraded; perBlock != shardSize {
				t.Fatalf("partial-sum degraded read fetched %d bytes/block, want exactly one %d-byte shard", perBlock, shardSize)
			}
		})
	}
}

// TestPartialSumVersusConventionalBytes quantifies, on a live cluster,
// what the identical degraded whole-file read downloads per
// reconstruction. RS's plan reads k whole shards. The conventional
// client already holds k-1 of them — the file's other blocks — so it
// fetches one parity shard and is lent the rest; the partial-sum client
// has the helpers fold the plan and fetches the one folded shard.
func TestPartialSumVersusConventionalBytes(t *testing.T) {
	code := testCodecs(t)[0] // rs(4,2): plan reads k=4 whole shards
	sys := startTestSystem(t, code)
	setup, err := Dial(sys.NameAddr(), code)
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()

	data := bytes.Repeat([]byte("recovery"), 2048) // 4 blocks, one stripe
	if err := setup.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := setup.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	_, blocks, err := sys.Cluster().FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.KillDataNode(blocks[0].Locations[0]); err != nil {
		t.Fatal(err)
	}

	perBlock := func(opts ...ClientOption) (fetched, lent int64) {
		cl, err := Dial(sys.NameAddr(), code, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		got, err := cl.ReadFile("f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("degraded read not byte-identical")
		}
		c := cl.Counters()
		if c.DegradedBlocks == 0 {
			t.Fatal("no degraded blocks")
		}
		return c.DegradedBytesFetched / c.DegradedBlocks, c.DegradedBytesLent / c.DegradedBlocks
	}

	shardSize, k := int64(4096), int64(code.DataShards())
	fetched, lent := perBlock()
	if fetched != shardSize || lent != (k-1)*shardSize || fetched+lent != k*shardSize {
		t.Fatalf("conventional degraded read fetched %d and was lent %d bytes/block, want one shard = %d fetched, k-1 lent, k*shard = %d in all",
			fetched, lent, shardSize, k*shardSize)
	}
	if fetched, lent := perBlock(WithPartialSumRepair()); fetched != shardSize || lent != 0 {
		t.Fatalf("partial-sum degraded read fetched %d and was lent %d bytes/block, want one shard = %d and nothing", fetched, lent, shardSize)
	}
}
