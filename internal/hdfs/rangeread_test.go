package hdfs

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/extent"
	"repro/internal/rs"
	"repro/internal/telemetry"
)

// gatedStore parks every read inside the store, after the dataNode has
// handed the call over, until the test releases it: entered counts
// reads that got that far.
type gatedStore struct {
	BlockStore
	entered chan struct{}
	release chan struct{}
}

func (g *gatedStore) GetInto(id BlockID, offset, length int64, dst []byte) ([]byte, error) {
	g.entered <- struct{}{}
	<-g.release
	return getInto(g.BlockStore, id, offset, length, dst)
}

func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestNodeReadsRunOutsideTheNodeLock: readRangeInto used to hold the
// dataNode's mutex across the store read and its CRC pass, so every
// read of one machine — two fixer workers pulling helpers from it,
// concurrent dn.reads — ran one at a time. Two reads must now be inside
// the store at once, and a crash must not have to wait for them: it
// closes the store under the read, which then fails instead of serving
// bytes from a handle that is gone.
func TestNodeReadsRunOutsideTheNodeLock(t *testing.T) {
	inner, err := ExtentStoreFactory(t.TempDir(), extent.Options{})(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := randBytes(9, 3*extent.ChunkSize)
	if err := inner.Put(7, payload); err != nil {
		t.Fatal(err)
	}
	gate := &gatedStore{BlockStore: inner, entered: make(chan struct{}), release: make(chan struct{})}
	d := &dataNode{id: 0, alive: true, store: gate, reopen: func() (BlockStore, error) {
		return nil, errors.New("not reopened in this test")
	}}

	type result struct {
		data []byte
		err  error
	}
	read := func() <-chan result {
		out := make(chan result, 1)
		go func() {
			data, err := d.readRange(7, extent.ChunkSize, 100)
			out <- result{data, err}
		}()
		return out
	}

	// Two reads of one node overlap inside the store.
	first, second := read(), read()
	waitFor(t, gate.entered, "the first read to reach the store")
	waitFor(t, gate.entered, "a second read to reach the store while the first is still in it")
	close(gate.release)
	for _, r := range []<-chan result{first, second} {
		if got := <-r; got.err != nil || !bytes.Equal(got.data, payload[extent.ChunkSize:extent.ChunkSize+100]) {
			t.Fatalf("overlapping read wrong: %v", got.err)
		}
	}

	// A crash lands while a read is parked in the store.
	gate.release = make(chan struct{})
	parked := read()
	waitFor(t, gate.entered, "the read to reach the store")
	crashed := make(chan error, 1)
	go func() {
		d.setAlive(false)
		crashed <- d.crash()
	}()
	select {
	case err := <-crashed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("crash waited for an in-flight read: the node lock is held across the store read")
	}
	close(gate.release)
	if got := <-parked; got.err == nil {
		t.Fatalf("a read that outlived its store's crash returned %d bytes, want an error", len(got.data))
	}
	if _, err := d.readRange(7, 0, 10); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("read of a crashed node: %v, want ErrNodeDown", err)
	}
}

// TestRepairDiskReadsFollowThePlan is the paper's disk claim as an
// invariant. Repairing one lost data block, a Piggybacked-RS cluster
// reads from its helpers' disks no more than the plan's bytes (each
// range rounded out to checksum chunks) — about 70% of what RS reads —
// while an RS cluster reads k whole blocks: the saving PR 12 pinned on
// the wire now holds on the platter. It holds in both shapes of the
// repair: the partial-sum fixer's helpers read, between them, exactly
// the bytes the conventional fixer's destination asks them for.
func TestRepairDiskReadsFollowThePlan(t *testing.T) {
	const (
		k, r      = 10, 4
		blockSize = 10*extent.ChunkSize + 2 // halves end mid-chunk
	)
	pb, err := core.New(k, r)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := rs.New(k, r)
	if err != nil {
		t.Fatal(err)
	}
	diskBytes := make(map[string]int64)
	for _, tc := range []struct {
		code    ec.Code
		partial bool
	}{{pb, false}, {plain, false}, {pb, true}, {plain, true}} {
		code := tc.code
		reg := telemetry.NewRegistry()
		c, err := New(Config{
			Topology:         cluster.Topology{Racks: k + r + 2, MachinesPerRack: 2},
			Code:             code,
			BlockSize:        blockSize,
			Replication:      3,
			Seed:             3,
			PartialSumRepair: tc.partial,
			StoreFactory:     ExtentStoreFactory(t.TempDir(), extent.Options{Telemetry: reg}),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		data := randBytes(31, k*blockSize)
		if err := c.WriteFile("f", data); err != nil {
			t.Fatal(err)
		}
		if err := c.RaidFile("f"); err != nil {
			t.Fatal(err)
		}
		_, blocks, err := c.FileBlocks("f")
		if err != nil {
			t.Fatal(err)
		}
		lost := blocks[0]
		c.FailMachine(lost.Locations[0])

		st, err := c.Stripe(lost.Stripe)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := code.PlanRepair(lost.StripePos, st.ShardSize, func(pos int) bool { return pos != lost.StripePos })
		if err != nil {
			t.Fatal(err)
		}
		// What the plan costs on disk: each helper's ranges, merged
		// where they touch, rounded out to whole chunks and clipped to
		// the stored block.
		var planBytes, chunked int64
		perShard := make(map[int][2]int64)
		for _, rd := range plan.Reads {
			planBytes += rd.Length
			span, seen := perShard[rd.Shard]
			if !seen {
				span = [2]int64{rd.Offset, rd.Offset + rd.Length}
			}
			span[0], span[1] = min(span[0], rd.Offset), max(span[1], rd.Offset+rd.Length)
			perShard[rd.Shard] = span
		}
		for _, span := range perShard {
			lo := span[0] / extent.ChunkSize * extent.ChunkSize
			hi := min((span[1]+extent.ChunkSize-1)/extent.ChunkSize*extent.ChunkSize, blockSize)
			chunked += hi - lo
		}

		before := reg.Snapshot().Counters["extent_read_bytes_total"]
		report, err := c.RunBlockFixer()
		if err != nil || report.RepairedStriped != 1 {
			t.Fatalf("%s: fixer: %+v, %v", code.Name(), report, err)
		}
		read := reg.Snapshot().Counters["extent_read_bytes_total"] - before
		if tc.partial {
			if report.PartialSumRepairs != 1 {
				t.Fatalf("%s: the repair did not take the partial-sum pipeline: %+v", code.Name(), report)
			}
			if conv := diskBytes[code.Name()]; read != conv {
				t.Fatalf("%s: partial-sum repair read %d bytes from disk, the conventional one %d: a helper read more than the plan names, or a range twice", code.Name(), read, conv)
			}
		}
		diskBytes[code.Name()] = read
		if read < planBytes || read > chunked {
			t.Fatalf("%s: repair read %d bytes from disk; the plan asks for %d, %d rounded out to chunks", code.Name(), read, planBytes, chunked)
		}
		if got, err := c.ReadFile("f"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: file wrong after repair: %v", code.Name(), err)
		}
		// The scrubber still verifies every byte: rot anywhere in a
		// replica, in a chunk no repair range of it would cover, is found.
		if err := c.InjectBitRot(blocks[1].Locations[0], blocks[1].ID, blockSize-1); err != nil {
			t.Fatal(err)
		}
		scrub, err := c.RunScrubber()
		if err != nil || scrub.CorruptReplicas != 1 {
			t.Fatalf("%s: scrubber after rot in a block's last chunk: %+v, %v", code.Name(), scrub, err)
		}
	}
	if got, want := diskBytes[plain.Name()], int64(k*blockSize); got != want {
		t.Fatalf("RS repair read %d bytes from disk, want k blocks = %d", got, want)
	}
	if pbBytes, rsBytes := diskBytes[pb.Name()], diskBytes[plain.Name()]; 10*pbBytes > 8*rsBytes {
		t.Fatalf("Piggybacked-RS repair read %d bytes from disk, RS %d: the saving did not reach the platter", pbBytes, rsBytes)
	}
}
