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
// what the identical degraded read costs in its two shapes.
//
// On the wire, per reconstruction of a whole-file read: RS's plan reads k
// whole shards. The conventional client already holds k-1 of them — the
// file's other blocks — so it fetches one parity shard and is lent the
// rest; the partial-sum client has the helpers fold the plan and fetches
// the one folded shard.
//
// On the helpers' disks, for a read of the lost block alone (nothing
// held, so both shapes run the whole plan): summed over the datanodes'
// extent stores, the tree reads exactly the bytes the fan-in asks for —
// every range the plan names once, however many terms it feeds (a
// Piggybacked-RS b-half feeds both halves of the target).
func TestPartialSumVersusConventionalBytes(t *testing.T) {
	for i, code := range testCodecs(t)[:2] { // rs(4,2), piggybacked-rs(4,2)
		i, code := i, code
		t.Run(code.Name(), func(t *testing.T) {
			cfg, ext := onDisk(t, testConfig(code))
			sys := startSystem(t, cfg)
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
			if i == 0 { // rs: the plan reads k whole shards
				fetched, lent := perBlock()
				if fetched != shardSize || lent != (k-1)*shardSize || fetched+lent != k*shardSize {
					t.Fatalf("conventional degraded read fetched %d and was lent %d bytes/block, want one shard = %d fetched, k-1 lent, k*shard = %d in all",
						fetched, lent, shardSize, k*shardSize)
				}
			}
			if fetched, lent := perBlock(WithPartialSumRepair()); fetched != shardSize || lent != 0 {
				t.Fatalf("partial-sum degraded read fetched %d and was lent %d bytes/block, want one shard = %d and nothing", fetched, lent, shardSize)
			}

			diskBytes := func(opts ...ClientOption) int64 {
				cl, err := Dial(sys.NameAddr(), code, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				_, table, err := cl.fileBlocks("f")
				if err != nil {
					t.Fatal(err)
				}
				before := ext.Snapshot().Counters["extent_read_bytes_total"]
				got, err := cl.degradedRead(table[0], nil)
				if err != nil || !bytes.Equal(got, data[:shardSize]) {
					t.Fatalf("degraded read of the lost block alone wrong (err %v)", err)
				}
				if partial := cl.Counters().PartialSumBlocks; (partial == 1) != (len(opts) > 0) {
					t.Fatalf("%d reconstructions took the partial-sum pipeline with %d options set", partial, len(opts))
				}
				return ext.Snapshot().Counters["extent_read_bytes_total"] - before
			}
			conventional, tree := diskBytes(), diskBytes(WithPartialSumRepair())
			if conventional == 0 || tree != conventional {
				t.Fatalf("the helpers read %d bytes from disk for the partial-sum reconstruction, %d for the conventional one of the same block", tree, conventional)
			}
		})
	}
}
