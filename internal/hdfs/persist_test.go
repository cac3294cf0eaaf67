package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/extent"
	"repro/internal/telemetry"
)

// persistentConfig is the configuration of an extent-backed cluster
// writing under dir; callers set further fields before newForTest.
func persistentConfig(t *testing.T, dir string, reg *telemetry.Registry) Config {
	t.Helper()
	return Config{
		Topology:     cluster.Topology{Racks: 20, MachinesPerRack: 3},
		Code:         rsCode(t),
		BlockSize:    1024,
		Replication:  3,
		Seed:         5,
		StoreFactory: ExtentStoreFactory(dir, extent.Options{Telemetry: reg}),
		Telemetry:    reg,
	}
}

// newForTest builds the cluster cfg describes and closes it with the
// test.
func newForTest(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// persistentCluster builds an extent-backed cluster writing under dir.
func persistentCluster(t *testing.T, dir string, reg *telemetry.Registry) *Cluster {
	t.Helper()
	return newForTest(t, persistentConfig(t, dir, reg))
}

// only returns the one metadata shard of a one-shard plane, for tests
// that reach into its files, blocks or locks.
func only(t *testing.T, c *Cluster) *metaShard {
	t.Helper()
	if len(c.shards) != 1 {
		t.Fatalf("plane has %d shards; this test reaches into the only one", len(c.shards))
	}
	return c.shards[0]
}

// TestPersistentCrashRecoverRoundTrip is the honest kill/restart cycle
// at the storage layer: CrashMachine closes the store (dropping the
// in-memory index), RecoverMachine rebuilds it by scanning the segment
// files, and every byte must come back.
func TestPersistentCrashRecoverRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := persistentCluster(t, t.TempDir(), reg)
	data := randBytes(21, 5000)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}

	// Crash every machine holding a replica of block 0 except one, so
	// the read has to survive on recovered machines later.
	locs, err := c.BlockLocations("f")
	if err != nil {
		t.Fatal(err)
	}
	crashed := locs[0]
	scansBefore := reg.Snapshot().Counters["extent_scan_records_total"]
	for _, m := range crashed {
		if err := c.CrashMachine(m); err != nil {
			t.Fatal(err)
		}
		if c.nodes[m].isAlive() {
			t.Fatalf("machine %d alive after crash", m)
		}
		if got, ok := c.nodes[m].blockIDs(); ok || got != nil {
			t.Fatalf("crashed machine %d still serves its index", m)
		}
	}
	for _, m := range crashed {
		if err := c.RecoverMachine(m); err != nil {
			t.Fatal(err)
		}
		if !c.nodes[m].isAlive() {
			t.Fatalf("machine %d dead after recover", m)
		}
	}
	// Recovery must have re-scanned segment records, not reused a map.
	if got := reg.Snapshot().Counters["extent_scan_records_total"]; got <= scansBefore {
		t.Fatalf("recovery scanned no records (%d -> %d)", scansBefore, got)
	}
	got, err := c.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("bytes differ after crash/recover cycle")
	}
}

// TestCrashMachineOnVolatileStoreDegradesToFail: without a store
// factory there is no disk, so CrashMachine must behave exactly like
// FailMachine + RestoreMachine keeps the blocks.
func TestCrashMachineOnVolatileStoreDegradesToFail(t *testing.T) {
	c := testCluster(t, rsCode(t), 9)
	data := randBytes(9, 3000)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	locs, err := c.BlockLocations("f")
	if err != nil {
		t.Fatal(err)
	}
	m := locs[0][0]
	if err := c.CrashMachine(m); err != nil {
		t.Fatal(err)
	}
	if c.nodes[m].isAlive() {
		t.Fatal("machine alive after crash")
	}
	if ids, ok := c.nodes[m].blockIDs(); !ok || len(ids) == 0 {
		t.Fatal("volatile store lost its blocks on crash")
	}
	if err := c.RecoverMachine(m); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after volatile crash/recover: %v", err)
	}
}

// TestScrubberFindsOnDiskCorruption: InjectBitRot on an extent-backed
// node flips a byte IN THE SEGMENT FILE; the scrubber's read goes back
// to disk (store-level CRC) and must evict exactly that replica —
// without aborting the rest of the pass, and the next fixer pass must
// repair only the affected block.
func TestScrubberFindsOnDiskCorruption(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := persistentCluster(t, t.TempDir(), reg)
	if err := c.WriteFile("f", randBytes(31, 4000)); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile("g", randBytes(32, 4000)); err != nil {
		t.Fatal(err)
	}
	locs, err := c.BlockLocations("f")
	if err != nil {
		t.Fatal(err)
	}
	fm := only(t, c).files["f"]
	victimBlock := fm.blocks[0]
	victimMachine := locs[0][0]
	if err := c.InjectBitRot(victimMachine, victimBlock, 7); err != nil {
		t.Fatal(err)
	}

	report, err := c.RunScrubber()
	if err != nil {
		t.Fatalf("scrub pass aborted: %v", err)
	}
	if report.CorruptReplicas != 1 {
		t.Fatalf("scrub evicted %d replicas, want 1", report.CorruptReplicas)
	}
	if len(report.AffectedBlocks) != 1 || report.AffectedBlocks[0] != victimBlock {
		t.Fatalf("affected blocks = %v, want [%d]", report.AffectedBlocks, victimBlock)
	}
	// The storage-level CRC failure must be the detection path (the
	// node refuses the read; the scrubber never sees the rotted bytes).
	if n := reg.Snapshot().Counters["hdfs_corrupt_reads_total"]; n == 0 {
		t.Fatal("no storage-level corrupt read recorded")
	}
	if n := reg.Snapshot().Counters["extent_crc_failures_total"]; n == 0 {
		t.Fatal("extent store recorded no CRC failure")
	}

	// Targeted re-repair: the fixer restores ONLY the affected block's
	// replication; nothing else moves.
	fix, err := c.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if fix.ReReplicated != 1 {
		t.Fatalf("fixer re-replicated %d blocks, want exactly the affected 1", fix.ReReplicated)
	}
	if len(fix.Unrecoverable) != 0 {
		t.Fatalf("unrecoverable blocks: %v", fix.Unrecoverable)
	}
	// And the repaired cluster scrubs clean.
	report, err = c.RunScrubber()
	if err != nil {
		t.Fatal(err)
	}
	if report.CorruptReplicas != 0 {
		t.Fatalf("second scrub still found %d corrupt replicas", report.CorruptReplicas)
	}
	if got, err := c.ReadFile("f"); err != nil || len(got) != 4000 {
		t.Fatalf("read after repair: %v", err)
	}
}

// TestScrubberSliceFindsOnDiskCorruption exercises the incremental
// scrubber against store-level corruption: the slice covering the
// victim machine must evict the replica instead of skipping it as a
// read error.
func TestScrubberSliceFindsOnDiskCorruption(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := persistentCluster(t, t.TempDir(), reg)
	if err := c.WriteFile("f", randBytes(41, 2048)); err != nil {
		t.Fatal(err)
	}
	locs, err := c.BlockLocations("f")
	if err != nil {
		t.Fatal(err)
	}
	victimBlock := only(t, c).files["f"].blocks[0]
	if err := c.InjectBitRot(locs[0][0], victimBlock, 100); err != nil {
		t.Fatal(err)
	}
	// One full cycle of slices must find it regardless of cursor phase.
	total := 0
	for i := 0; i < c.Machines(); i += 5 {
		rep, err := c.RunScrubberSlice(5)
		if err != nil {
			t.Fatal(err)
		}
		total += rep.CorruptReplicas
	}
	if total != 1 {
		t.Fatalf("slice cycle evicted %d corrupt replicas, want 1", total)
	}
}

// TestPersistentReadCorruptReplicaFallsBack: a replica failing its
// disk CRC is treated like a dead one — the client-visible ReadFile
// still succeeds from the surviving replicas.
func TestPersistentReadCorruptReplicaFallsBack(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := persistentCluster(t, t.TempDir(), reg)
	data := randBytes(51, 5000)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	// Raid the file: each data block keeps ONE replica, so rotting it
	// forces the read down the degraded (stripe-reconstruction) path
	// deterministically.
	if err := c.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	locs, err := c.BlockLocations("f")
	if err != nil {
		t.Fatal(err)
	}
	id := only(t, c).files["f"].blocks[0]
	for _, m := range locs[0] {
		if err := c.InjectBitRot(m, id, 3); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read returned corrupted bytes")
	}
	if n := reg.Snapshot().Counters["hdfs_corrupt_reads_total"]; n == 0 {
		t.Fatal("corrupt reads not counted")
	}
}

// TestPersistentDecommissionWipesDisk: decommission must destroy the
// durable replicas too — even a crashed machine's.
func TestPersistentDecommissionWipesDisk(t *testing.T) {
	dir := t.TempDir()
	c := persistentCluster(t, dir, nil)
	if err := c.WriteFile("f", randBytes(61, 2000)); err != nil {
		t.Fatal(err)
	}
	locs, err := c.BlockLocations("f")
	if err != nil {
		t.Fatal(err)
	}
	m := locs[0][0]
	if err := c.CrashMachine(m); err != nil {
		t.Fatal(err)
	}
	c.DecommissionMachine(m)
	// Reopening the machine's store must find nothing live.
	if err := c.RecoverMachine(m); err != nil {
		t.Fatal(err)
	}
	if ids, ok := c.nodes[m].blockIDs(); !ok {
		t.Fatal("recover after decommission failed")
	} else if len(ids) != 0 {
		t.Fatalf("decommissioned machine still holds %d blocks on disk", len(ids))
	}
}

// TestShardedPersistentCrashRecover drives the crash/recover cycle
// through the plane at one and at four shards: the physical stores
// belong to the plane, are shared by its shards, and must be closed and
// reopened exactly once however many shards there are.
func TestShardedPersistentCrashRecover(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var opens, closes atomic.Int64
			cfg := persistentConfig(t, t.TempDir(), nil)
			cfg.Shards = shards
			inner := cfg.StoreFactory
			cfg.StoreFactory = func(machine int) (BlockStore, error) {
				st, err := inner(machine)
				opens.Add(1)
				return closeCounter{st, &closes}, err
			}
			sc := newForTest(t, cfg)
			data := randBytes(71, 4096)
			if err := sc.WriteFile("a/f", data); err != nil {
				t.Fatal(err)
			}
			locs, err := sc.BlockLocations("a/f")
			if err != nil {
				t.Fatal(err)
			}
			m := locs[0][0]
			opens.Store(0)
			if err := sc.CrashMachine(m); err != nil {
				t.Fatal(err)
			}
			if err := sc.CrashMachine(m); err != nil {
				t.Fatalf("crash must be idempotent: %v", err)
			}
			if sc.MachineAlive(m) {
				t.Fatal("crashed machine still alive")
			}
			if err := sc.RecoverMachine(m); err != nil {
				t.Fatal(err)
			}
			if o, c := opens.Load(), closes.Load(); o != 1 || c != 1 {
				t.Fatalf("two crashes and a recovery closed the store %d times and reopened it %d times, want 1 and 1", c, o)
			}
			got, err := sc.ReadFile("a/f")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("crash/recover read: %v", err)
			}
			if err := sc.CrashMachine(sc.Machines()); err == nil {
				t.Fatal("out-of-range machine accepted by CrashMachine")
			}
			if err := sc.RecoverMachine(-1); err == nil {
				t.Fatal("out-of-range machine accepted by RecoverMachine")
			}
			closes.Store(0)
			if err := sc.Close(); err != nil {
				t.Fatal(err)
			}
			if c, want := closes.Load(), int64(sc.Machines()); c != want {
				t.Fatalf("Close closed %d stores, want each of the %d once", c, want)
			}
		})
	}
}

// closeCounter counts the Close calls a store receives.
type closeCounter struct {
	BlockStore
	closes *atomic.Int64
}

func (c closeCounter) Close() error {
	c.closes.Add(1)
	return c.BlockStore.Close()
}

// TestReadRangeMapsStoreErrors pins the dataNode error contract: a
// missing block keeps the historical message shape, and a corrupt one
// surfaces the typed sentinel.
func TestReadRangeMapsStoreErrors(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := persistentCluster(t, t.TempDir(), reg)
	if err := c.WriteFile("f", randBytes(81, 100)); err != nil {
		t.Fatal(err)
	}
	locs, err := c.BlockLocations("f")
	if err != nil {
		t.Fatal(err)
	}
	id := only(t, c).files["f"].blocks[0]
	node := c.nodes[locs[0][0]]
	if _, err := node.readRange(id+9999, 0, 10); err == nil || errors.Is(err, ErrCorruptReplica) {
		t.Fatalf("missing block error: %v", err)
	}
	if err := c.InjectBitRot(node.id, id, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := node.readRange(id, 0, 10); !errors.Is(err, ErrCorruptReplica) {
		t.Fatalf("corrupt replica error not typed: %v", err)
	}
}
