package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/extent"
	"repro/internal/telemetry"
)

// persistentConfig is the configuration of a cluster whose extent
// stores write under dir, with their instruments on reg; callers set
// further fields before newForTest.
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

// withFixerWorkers gives c a stripe-repair engine of par workers
// on the cluster's registry, in place of New's GOMAXPROCS default.
// Repaired bytes and traffic accounting are identical at any setting.
func withFixerWorkers(c *Cluster, par int) *Cluster {
	c.eng = engine.New(engine.Options{Parallelism: par, Telemetry: c.cfg.Telemetry})
	return c
}

// persistentCluster builds a cluster whose extent stores write under
// dir.
func persistentCluster(t *testing.T, dir string, reg *telemetry.Registry) *Cluster {
	t.Helper()
	return newForTest(t, persistentConfig(t, dir, reg))
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

// TestDefaultClusterStoresOnDisk: without a StoreFactory every
// datanode runs an extent store in a directory New made, so a crash
// closes the store and only a re-scan of that directory brings the
// replicas back.
func TestDefaultClusterStoresOnDisk(t *testing.T) {
	c := testCluster(t, rsCode(t), 9)
	data := randBytes(9, 3000)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	locs, err := c.BlockLocations("f")
	if err != nil {
		t.Fatal(err)
	}
	// Crash every holder of block 0, so the read after recovery can only
	// be served from what the reopened stores find on disk.
	closed := map[int]BlockStore{}
	for _, m := range locs[0] {
		if _, err := os.Stat(filepath.Join(c.dir, fmt.Sprintf("dn-%03d", m))); err != nil {
			t.Fatalf("machine %d's store is not in the cluster's directory: %v", m, err)
		}
		closed[m] = c.nodes[m].store
		if err := c.CrashMachine(m); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.nodes[m].blockIDs(); ok {
			t.Fatalf("crashed machine %d still serves its index", m)
		}
	}
	for m, old := range closed {
		if err := c.RecoverMachine(m); err != nil {
			t.Fatal(err)
		}
		if c.nodes[m].store == old {
			t.Fatalf("machine %d recovered without reopening its store", m)
		}
	}
	if got, err := c.ReadFile("f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after crash/recover: %v", err)
	}
}

// TestCloseRemovesOnlyTheDirectoryNewMade: Close removes the directory
// New made for the default stores, also when a store fails to close,
// and leaves a StoreFactory's directory in place.
func TestCloseRemovesOnlyTheDirectoryNewMade(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		c := testCluster(t, rsCode(t), 9)
		if err := c.WriteFile("f", randBytes(9, 3000)); err != nil {
			t.Fatal(err)
		}
		errClose := errors.New("injected close failure")
		c.nodes[0].store = failingClose{c.nodes[0].store, errClose}
		if err := c.Close(); !errors.Is(err, errClose) {
			t.Fatalf("Close: %v, want the store's failure", err)
		}
		if _, err := os.Stat(c.dir); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Close left the cluster's directory %s: %v", c.dir, err)
		}
	})
	t.Run("factory", func(t *testing.T) {
		dir := t.TempDir()
		c := persistentCluster(t, dir, nil)
		if err := c.WriteFile("f", randBytes(9, 3000)); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, "dn-000")); err != nil {
			t.Fatalf("Close removed the factory's directory: %v", err)
		}
	})
}

// failingClose closes its store and then reports err.
type failingClose struct {
	BlockStore
	err error
}

func (f failingClose) Close() error {
	_ = f.BlockStore.Close()
	return f.err
}

// TestScrubberFindsOnDiskCorruption: InjectBitRot flips a byte IN THE
// SEGMENT FILE; VerifyReplica's read goes back to disk (store-level
// CRC), and a sweep of every replica must evict exactly that one —
// without aborting the rest of the sweep, and the next fixer pass must
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
	fm := c.files["f"]
	victimBlock := fm.blocks[0]
	victimMachine := locs[0][0]
	if err := c.InjectBitRot(victimMachine, victimBlock, 7); err != nil {
		t.Fatal(err)
	}

	evicted, affected := scrub(c)
	if evicted != 1 {
		t.Fatalf("scrub evicted %d replicas, want 1", evicted)
	}
	if !slices.Equal(affected, []BlockID{victimBlock}) {
		t.Fatalf("affected blocks = %v, want [%d]", affected, victimBlock)
	}
	// The storage-level CRC failure must be the detection path (the
	// node refuses the read; the verifier never sees the rotted bytes).
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
	if evicted, _ := scrub(c); evicted != 0 {
		t.Fatalf("second scrub still found %d corrupt replicas", evicted)
	}
	if got, err := c.ReadFile("f"); err != nil || len(got) != 4000 {
		t.Fatalf("read after repair: %v", err)
	}
}

// rotFaults are the two kinds of rot a replica can suffer: one the
// store's chunk CRCs catch, and one they cover.
var rotFaults = []struct {
	name string
	rot  func(*Cluster, int, BlockID, int64) error
	// refused is whether the store refuses a read of the rotted replica.
	refused bool
}{
	{"store sees it", (*Cluster).InjectBitRot, true},
	{"under the CRC", rotUnderCRC, false},
}

// rotUnderCRC rewrites the replica of block id on machine through the
// node's own store with the byte at offset flipped, as a misdirected
// write would: the store's chunk CRCs then cover the wrong bytes, so it
// serves them as sound, and only the block's CRC-32 (the namenode's)
// can tell.
func rotUnderCRC(c *Cluster, machine int, id BlockID, offset int64) error {
	st := c.nodes[machine].store
	data, err := st.Get(id)
	if err != nil {
		return err
	}
	data[offset] ^= 0xFF
	return st.Put(id, data)
}

// TestReReplicationSkipsRottedReplicas: a replicated block with one
// replica dead and the first live one rotted is re-replicated from the
// replica that still matches its checksum, whether or not the store
// sees the rot. The fixer used to copy from the first live replica
// unchecked: rot under the CRC spread to the new copy, and on rot the
// store refuses, the block was reported unrecoverable while a good
// replica was live.
func TestReReplicationSkipsRottedReplicas(t *testing.T) {
	for _, tc := range rotFaults {
		t.Run(tc.name, func(t *testing.T) {
			c := testCluster(t, pbCode(t), 7)
			data := randBytes(61, 1000)
			if err := c.WriteFile("f", data); err != nil {
				t.Fatal(err)
			}
			locs, err := c.BlockLocations("f")
			if err != nil {
				t.Fatal(err)
			}
			l := locs[0]
			c.FailMachine(l[2])
			if err := tc.rot(c, l[0], c.files["f"].blocks[0], 5); err != nil {
				t.Fatal(err)
			}
			fix, err := c.RunBlockFixer()
			if err != nil || fix.ReReplicated != 1 || len(fix.Unrecoverable) != 0 {
				t.Fatalf("fixer: %+v, %v; want one block re-replicated", fix, err)
			}
			// The rot injected on l[0] is the only rot left.
			if evicted, _ := scrub(c); evicted != 1 {
				t.Fatalf("scrub after re-replication evicted %d replicas; want only the injected rot", evicted)
			}
			// With l[1] gone too, the new copy alone serves the file.
			c.FailMachine(l[1])
			if got, err := c.ReadFile("f"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read from the new replica: %v", err)
			}
		})
	}
}

// TestStripeRepairSkipsRottedHelpers: a stripe repair whose helper is
// rotted neither spreads the rot nor gives up, whether or not the store
// sees the rot. Block 1's only replica is rotted and block 0's holder
// dies. Rot the store sees is refused at the read, so the fixer marks
// position 1 erased and decodes block 0 from the other helpers in the
// same pass. Rot under the CRC is served as sound, so the rebuilt block
// 0 fails its checksum and is not stored; once VerifyReplica evicts
// the rot, the next pass rebuilds both. The fixer used to store the
// wrong block 0 on rot under the CRC, and to report it unrecoverable on
// rot the store refuses. A degraded ReadFile before the first pass follows
// the same rule: byte-identical when the store refuses the rot,
// ErrCorruptReplica when it serves it. It used to return the wrong
// bytes in the one case and fail on shard 1's checksum in the other.
func TestStripeRepairSkipsRottedHelpers(t *testing.T) {
	for _, tc := range rotFaults {
		t.Run(tc.name, func(t *testing.T) {
			c := testCluster(t, rsCode(t), 7)
			data := randBytes(91, 6000)
			if err := c.WriteFile("f", data); err != nil {
				t.Fatal(err)
			}
			if err := c.RaidFile("f"); err != nil {
				t.Fatal(err)
			}
			locs, err := c.BlockLocations("f")
			if err != nil {
				t.Fatal(err)
			}
			blocks := c.files["f"].blocks
			if err := tc.rot(c, locs[1][0], blocks[1], 5); err != nil {
				t.Fatal(err)
			}
			c.FailMachine(locs[0][0])

			got, err := c.ReadFile("f")
			if tc.refused && (err != nil || !bytes.Equal(got, data)) {
				t.Fatalf("degraded read around the rotted helper: %v", err)
			}
			if !tc.refused && !errors.Is(err, ErrCorruptReplica) {
				t.Fatalf("degraded read over the rotted helper: %d bytes, %v; want ErrCorruptReplica", len(got), err)
			}

			fix, err := c.RunBlockFixer()
			if err != nil {
				t.Fatal(err)
			}
			var want []BlockID
			if !tc.refused {
				want = []BlockID{blocks[0]}
			}
			if !slices.Equal(fix.Unrecoverable, want) {
				t.Fatalf("first pass: unrecoverable %v, want %v (%+v)", fix.Unrecoverable, want, fix)
			}
			if tc.refused {
				if got, err := c.ReadFile("f"); err != nil || !bytes.Equal(got, data) {
					t.Fatalf("read after the first pass: %v", err)
				}
			}

			scrub(c)
			if fix, err := c.RunBlockFixer(); err != nil || len(fix.Unrecoverable) != 0 {
				t.Fatalf("second pass: %+v, %v", fix, err)
			}
			if got, err := c.ReadFile("f"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read after the second pass: %v", err)
			}
		})
	}
}

// TestRebuiltBlockWithWrongCRCIsNeverWritten: the fixer's rebuilt block
// is checked against the block's CRC-32 by the destination's store, as
// it fills the chunk table, and a block that fails is refused before
// any append — the store's append counter moves only for the blocks the
// pass reports repaired.
func TestRebuiltBlockWithWrongCRCIsNeverWritten(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := persistentCluster(t, t.TempDir(), reg)
	if err := c.WriteFile("f", randBytes(93, 6000)); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	locs, err := c.BlockLocations("f")
	if err != nil {
		t.Fatal(err)
	}
	blocks := c.files["f"].blocks
	if err := rotUnderCRC(c, locs[1][0], blocks[1], 5); err != nil {
		t.Fatal(err)
	}
	c.FailMachine(locs[0][0])
	appends := func() int64 { return reg.Snapshot().Counters["extent_appends_total"] }
	before := appends()
	fix, err := c.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(fix.Unrecoverable, blocks[0]) {
		t.Fatalf("block %d rebuilt over a rotted helper was not refused: %+v", blocks[0], fix)
	}
	if got := appends() - before; got != int64(fix.RepairedStriped) {
		t.Fatalf("the pass appended %d records for %d repaired blocks: the refused block was written", got, fix.RepairedStriped)
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
	id := c.files["f"].blocks[0]
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

// TestPersistentCrashRecoverClosesEachStoreOnce drives the
// crash/recover cycle through the cluster: a machine's store is closed
// and reopened exactly once however often it is crashed, and Close
// closes every store once.
func TestPersistentCrashRecoverClosesEachStoreOnce(t *testing.T) {
	var opens, closes atomic.Int64
	cfg := persistentConfig(t, t.TempDir(), nil)
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
	closes.Store(0)
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if c, want := closes.Load(), int64(sc.Machines()); c != want {
		t.Fatalf("Close closed %d stores, want each of the %d once", c, want)
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
	id := c.files["f"].blocks[0]
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
