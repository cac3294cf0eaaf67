package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/lrc"
	"repro/internal/rs"
)

// testCluster builds a cluster with a (4,2) code on a 20-rack topology
// and 1 KB blocks, small enough for exhaustive assertions, and closes
// it with the test.
func testCluster(t *testing.T, code ec.Code, seed int64) *Cluster {
	t.Helper()
	return newForTest(t, Config{
		Topology:    cluster.Topology{Racks: 20, MachinesPerRack: 3},
		Code:        code,
		BlockSize:   1024,
		Replication: 3,
		Seed:        seed,
	})
}

func rsCode(t *testing.T) *rs.Code {
	t.Helper()
	c, err := rs.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func pbCode(t *testing.T) *core.Code {
	t.Helper()
	c, err := core.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// stripeOf returns the stripe of the file's i-th block and the block's
// position in it.
func stripeOf(t *testing.T, c *Cluster, name string, i int) (StripeID, int) {
	t.Helper()
	_, blocks, err := c.FileBlocks(name)
	if err != nil {
		t.Fatal(err)
	}
	return blocks[i].Stripe, blocks[i].StripePos
}

// stripeRacks returns the rack of every live replica in the stripe.
func stripeRacks(t *testing.T, c *Cluster, id StripeID) []int {
	t.Helper()
	d, err := c.Stripe(id)
	if err != nil {
		t.Fatal(err)
	}
	var racks []int
	for _, p := range d.Positions {
		for _, m := range p.Locations {
			racks = append(racks, c.cfg.Topology.RackOf(m))
		}
	}
	return racks
}

func randBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestConfigValidation(t *testing.T) {
	good := Config{
		Topology:    cluster.Topology{Racks: 20, MachinesPerRack: 2},
		Code:        rsCode(t),
		BlockSize:   1024,
		Replication: 3,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(Config) Config{
		func(c Config) Config { c.Topology.Racks = 0; return c },
		func(c Config) Config { c.Code = nil; return c },
		func(c Config) Config { c.BlockSize = 0; return c },
		func(c Config) Config { c.Replication = 0; return c },
		func(c Config) Config { c.Replication = 21; return c },
		func(c Config) Config { c.Topology.Racks = 5; return c }, // stripe width 6 > 5 racks
	}
	for i, mut := range cases {
		if err := mut(good).Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestUnknownMachineIDs calls every entry point of Cluster that takes a
// machine id with ids just outside [0, Machines()). None may panic: the
// lookups report nothing, the calls that return an error return one,
// and the rest leave every machine as it was.
func TestUnknownMachineIDs(t *testing.T) {
	c := testCluster(t, rsCode(t), 3)
	data := randBytes(3, 2048)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	_, blocks, err := c.FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	id := blocks[0].ID
	refused := func(err error) error {
		if err == nil {
			return errors.New("accepted")
		}
		return nil
	}
	for _, bad := range []int{-1, c.Machines()} {
		for _, tc := range []struct {
			name string
			call func() error
		}{
			{"FailMachine", func() error { c.FailMachine(bad); return nil }},
			{"DecommissionMachine", func() error { c.DecommissionMachine(bad); return nil }},
			{"CrashMachine", func() error { return refused(c.CrashMachine(bad)) }},
			{"RecoverMachine", func() error { return refused(c.RecoverMachine(bad)) }},
			{"InjectBitRot", func() error { return refused(c.InjectBitRot(bad, id, 0)) }},
			{"NodeReadRangeInto", func() error {
				_, err := c.NodeReadRangeInto(bad, id, 0, 1, nil)
				return refused(err)
			}},
			{"BlocksOn", func() error {
				if ids := c.BlocksOn(bad); len(ids) != 0 {
					return fmt.Errorf("holds %v", ids)
				}
				return nil
			}},
			{"MachineInventory", func() error {
				if inv := c.MachineInventory(bad); len(inv.Stripes)+len(inv.Replicated) != 0 {
					return fmt.Errorf("holds %+v", inv)
				}
				return nil
			}},
			{"MachineAlive", func() error {
				if c.MachineAlive(bad) {
					return errors.New("alive")
				}
				return nil
			}},
		} {
			t.Run(fmt.Sprintf("%s/id=%d", tc.name, bad), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				if err := tc.call(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	if live := c.Stats().LiveMachines; live != c.Machines() {
		t.Fatalf("%d of %d machines live after calls on unknown ids", live, c.Machines())
	}
	if got, err := c.ReadFile("f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after calls on unknown ids: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := testCluster(t, rsCode(t), 1)
	for _, n := range []int{1, 1023, 1024, 1025, 5000, 8192} {
		data := randBytes(int64(n), n)
		name := string(rune('a' + n%26))
		if err := c.WriteFile(name, data); err != nil {
			t.Fatalf("write %d bytes: %v", n, err)
		}
		got, err := c.ReadFile(name)
		if err != nil {
			t.Fatalf("read %d bytes: %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("roundtrip of %d bytes corrupted", n)
		}
	}
}

func TestWriteFileErrors(t *testing.T) {
	c := testCluster(t, rsCode(t), 2)
	if err := c.WriteFile("x", nil); err == nil {
		t.Fatal("empty file accepted")
	}
	if err := c.WriteFile("x", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile("x", []byte{2}); !errors.Is(err, ErrFileExists) {
		t.Fatalf("duplicate accepted: %v", err)
	}
	if _, err := c.ReadFile("nope"); !errors.Is(err, ErrFileNotFound) {
		t.Fatalf("missing file read: %v", err)
	}
	if _, err := c.Stat("nope"); !errors.Is(err, ErrFileNotFound) {
		t.Fatalf("missing file stat: %v", err)
	}
}

func TestReplicationPlacement(t *testing.T) {
	c := testCluster(t, rsCode(t), 3)
	if err := c.WriteFile("f", randBytes(1, 2048)); err != nil {
		t.Fatal(err)
	}
	locs, err := c.BlockLocations("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 2 {
		t.Fatalf("got %d blocks, want 2", len(locs))
	}
	topo := cluster.Topology{Racks: 20, MachinesPerRack: 3}
	for i, replicas := range locs {
		if len(replicas) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", i, len(replicas))
		}
		racks := make(map[int]bool)
		for _, m := range replicas {
			racks[topo.RackOf(m)] = true
		}
		if len(racks) != 3 {
			t.Fatalf("block %d replicas on %d racks, want 3", i, len(racks))
		}
	}
}

func TestRaidFilePreservesContentAndDropsReplicas(t *testing.T) {
	c := testCluster(t, rsCode(t), 4)
	data := randBytes(2, 8*1024) // exactly 8 blocks = 2 stripes of 4
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	info, err := c.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Raided {
		t.Fatal("file not marked raided")
	}
	got, err := c.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("raid corrupted file contents")
	}
	locs, _ := c.BlockLocations("f")
	for i, replicas := range locs {
		if len(replicas) != 1 {
			t.Fatalf("raided block %d has %d replicas, want 1 (§2.1)", i, len(replicas))
		}
	}
	if err := c.RaidFile("f"); !errors.Is(err, ErrAlreadyRaided) {
		t.Fatalf("double raid: %v", err)
	}
	if err := c.RaidFile("nope"); !errors.Is(err, ErrFileNotFound) {
		t.Fatalf("raid of missing file: %v", err)
	}
}

func TestStripeOnDistinctRacks(t *testing.T) {
	c := testCluster(t, rsCode(t), 5)
	if err := c.WriteFile("f", randBytes(3, 4*1024)); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	sid, pos := stripeOf(t, c, "f", 0)
	if pos != 0 {
		t.Fatalf("block 0 at stripe position %d, want 0", pos)
	}
	racks := stripeRacks(t, c, sid)
	if len(racks) != 6 { // 4 data + 2 parity
		t.Fatalf("stripe spans %d blocks, want 6", len(racks))
	}
	seen := make(map[int]bool)
	for _, r := range racks {
		if seen[r] {
			t.Fatalf("rack %d hosts two blocks of one stripe (§2.1 violation)", r)
		}
		seen[r] = true
	}
}

func TestStorageOverheadAfterRaid(t *testing.T) {
	c := testCluster(t, rsCode(t), 6)
	data := randBytes(4, 4*1024) // exactly one full stripe, all blocks 1024
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if got, want := c.TotalStoredBytes(), int64(3*4*1024); got != want {
		t.Fatalf("replicated storage %d, want %d (3x)", got, want)
	}
	if err := c.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	// (4,2): 1.5x of the 4 KB logical size.
	if got, want := c.TotalStoredBytes(), int64(6*1024); got != want {
		t.Fatalf("raided storage %d, want %d (1.5x)", got, want)
	}
}

func TestDegradedReadAfterMachineFailure(t *testing.T) {
	c := testCluster(t, rsCode(t), 7)
	data := randBytes(5, 4*1024)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	c.Network().Reset()

	locs, _ := c.BlockLocations("f")
	c.FailMachine(locs[0][0])

	got, err := c.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read returned wrong bytes")
	}
	// RS(4,2) repair of one 1024-byte block downloads 4 blocks.
	if cross := c.Network().CrossRackBytes(); cross != 4*1024 {
		t.Fatalf("degraded read moved %d cross-rack bytes, want %d", cross, 4*1024)
	}
}

func TestDegradedReadCheaperWithPiggyback(t *testing.T) {
	// Same scenario on two clusters differing only in codec: the
	// piggybacked degraded read must move fewer cross-rack bytes.
	run := func(code ec.Code) int64 {
		c := testCluster(t, code, 8)
		data := randBytes(6, 4*1024)
		if err := c.WriteFile("f", data); err != nil {
			t.Fatal(err)
		}
		if err := c.RaidFile("f"); err != nil {
			t.Fatal(err)
		}
		c.Network().Reset()
		locs, _ := c.BlockLocations("f")
		c.FailMachine(locs[0][0])
		got, err := c.ReadFile("f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("wrong bytes")
		}
		return c.Network().CrossRackBytes()
	}
	rsBytes := run(rsCode(t))
	pbBytes := run(pbCode(t))
	if pbBytes >= rsBytes {
		t.Fatalf("piggybacked degraded read moved %d bytes, RS %d — no saving", pbBytes, rsBytes)
	}
	// (4,2) with group {0,1}: repairing block 0 reads (4+2)/2 = 3
	// block-equivalents vs 4 for RS: exactly 25% less.
	if want := int64(3 * 1024); pbBytes != want {
		t.Fatalf("piggybacked degraded read moved %d bytes, want %d", pbBytes, want)
	}
}

func TestBlockFixerRestoresAvailability(t *testing.T) {
	c := testCluster(t, pbCode(t), 9)
	data := randBytes(7, 8*1024)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	c.Network().Reset()

	locs, _ := c.BlockLocations("f")
	dead := locs[2][0]
	c.DecommissionMachine(dead)

	report, err := c.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if report.RepairedStriped < 1 {
		t.Fatalf("fixer repaired %d striped blocks, want >= 1", report.RepairedStriped)
	}
	if len(report.Unrecoverable) != 0 {
		t.Fatalf("unrecoverable blocks: %v", report.Unrecoverable)
	}
	if report.CrossRackBytes <= 0 {
		t.Fatal("fixer moved no cross-rack bytes")
	}

	// After fixing, reads are clean: no further recovery traffic.
	before := c.Network().CrossRackBytes()
	got, err := c.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fixer restored wrong bytes")
	}
	if c.Network().CrossRackBytes() != before {
		t.Fatal("read after fix still triggered recovery traffic")
	}

	// The repaired stripe keeps one block per rack.
	sid, _ := stripeOf(t, c, "f", 2)
	racks := stripeRacks(t, c, sid)
	seen := make(map[int]bool)
	for _, r := range racks {
		if seen[r] {
			t.Fatalf("rack %d hosts two blocks after fix", r)
		}
		seen[r] = true
	}
}

func TestBlockFixerHandlesMultipleFailures(t *testing.T) {
	c := testCluster(t, rsCode(t), 10)
	data := randBytes(8, 4*1024)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("f")
	// Fail two of the four data blocks' machines: within tolerance r=2.
	c.DecommissionMachine(locs[0][0])
	c.DecommissionMachine(locs[3][0])
	report, err := c.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if report.RepairedStriped != 2 {
		t.Fatalf("repaired %d, want 2", report.RepairedStriped)
	}
	got, err := c.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong bytes after multi-failure fix")
	}
}

func TestBlockFixerJointStripeRepairTraffic(t *testing.T) {
	// Two lost blocks of one (4,2) stripe: the fixer performs ONE joint
	// decode (4 shards to the worker) plus one onward hop for the
	// second block — 5 block transfers, not the 8 of two separate
	// single repairs.
	c := testCluster(t, rsCode(t), 21)
	data := randBytes(20, 4*1024)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	c.Network().Reset()
	locs, _ := c.BlockLocations("f")
	c.DecommissionMachine(locs[0][0])
	c.DecommissionMachine(locs[3][0])
	report, err := c.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if report.RepairedStriped != 2 {
		t.Fatalf("repaired %d, want 2", report.RepairedStriped)
	}
	if report.CrossRackBytes != 5*1024 {
		t.Fatalf("joint fix moved %d bytes, want %d (4 decode + 1 forward)", report.CrossRackBytes, 5*1024)
	}
	got, _ := c.ReadFile("f")
	if !bytes.Equal(got, data) {
		t.Fatal("joint repair wrong bytes")
	}
	// Both repaired blocks must land on fresh, distinct racks.
	sid, _ := stripeOf(t, c, "f", 0)
	racks := stripeRacks(t, c, sid)
	seen := make(map[int]bool)
	for _, r := range racks {
		if seen[r] {
			t.Fatalf("rack %d reused after joint fix", r)
		}
		seen[r] = true
	}
}

func TestBlockFixerReReplicates(t *testing.T) {
	c := testCluster(t, rsCode(t), 11)
	data := randBytes(9, 2048)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("f")
	c.DecommissionMachine(locs[0][0])
	report, err := c.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if report.ReReplicated < 1 {
		t.Fatalf("re-replicated %d, want >= 1", report.ReReplicated)
	}
	locs, _ = c.BlockLocations("f")
	if len(locs[0]) != 3 {
		t.Fatalf("block 0 back at %d replicas, want 3", len(locs[0]))
	}
	got, _ := c.ReadFile("f")
	if !bytes.Equal(got, data) {
		t.Fatal("wrong bytes after re-replication")
	}
}

func TestUnrecoverableBeyondTolerance(t *testing.T) {
	c := testCluster(t, rsCode(t), 12)
	data := randBytes(10, 4*1024)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	// Kill three of the stripe's machines: beyond r=2.
	locs, _ := c.BlockLocations("f")
	c.DecommissionMachine(locs[0][0])
	c.DecommissionMachine(locs[1][0])
	c.DecommissionMachine(locs[2][0])
	report, err := c.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Unrecoverable) == 0 {
		t.Fatal("fixer claimed to recover an unrecoverable stripe")
	}
	if _, err := c.ReadFile("f"); err == nil {
		t.Fatal("read of unrecoverable file succeeded")
	}
}

func TestTransientFailureAndRestore(t *testing.T) {
	c := testCluster(t, rsCode(t), 13)
	data := randBytes(11, 4*1024)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("f")
	m := locs[1][0]
	c.FailMachine(m)
	if got, _ := c.ReadFile("f"); !bytes.Equal(got, data) {
		t.Fatal("degraded read during transient failure wrong")
	}
	if err := c.RecoverMachine(m); err != nil {
		t.Fatal(err)
	}
	c.Network().Reset()
	got, err := c.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read after restore wrong")
	}
	if c.Network().CrossRackBytes() != 0 {
		t.Fatal("restored machine should serve its block without recovery traffic")
	}
}

func TestPartialTailStripePhantomPadding(t *testing.T) {
	// 6 blocks with k=4: second stripe has only 2 data blocks and two
	// phantom zero blocks. Everything must still encode, read, fail,
	// and repair correctly.
	c := testCluster(t, pbCode(t), 14)
	data := randBytes(12, 6*1024)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("tail stripe roundtrip wrong")
	}
	// Fail the machine of block 5 (position 1 of the tail stripe).
	locs, _ := c.BlockLocations("f")
	c.DecommissionMachine(locs[5][0])
	report, err := c.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if report.RepairedStriped != 1 || len(report.Unrecoverable) != 0 {
		t.Fatalf("tail stripe fix report %+v", report)
	}
	got, _ = c.ReadFile("f")
	if !bytes.Equal(got, data) {
		t.Fatal("tail stripe repair wrong")
	}
}

func TestUnevenLastBlockSizes(t *testing.T) {
	// 4097 bytes: blocks of 1024,1024,1024,1024,1 — the tail stripe's
	// shard size comes from a 1-byte block rounded to the codec's
	// alignment.
	c := testCluster(t, pbCode(t), 15)
	data := randBytes(13, 4097)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("f")
	c.DecommissionMachine(locs[4][0]) // the 1-byte block
	if _, err := c.RunBlockFixer(); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("uneven block repair wrong")
	}
}

func TestLostReplicatedFileUnreadable(t *testing.T) {
	c := testCluster(t, rsCode(t), 16)
	if err := c.WriteFile("f", randBytes(14, 100)); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("f")
	for _, m := range locs[0] {
		c.DecommissionMachine(m)
	}
	if _, err := c.ReadFile("f"); !errors.Is(err, ErrBlockLost) {
		t.Fatalf("expected ErrBlockLost, got %v", err)
	}
}

func TestLRCCodecInHDFS(t *testing.T) {
	// The DFS is codec-agnostic: run the full raid/fail/fix cycle under
	// the LRC baseline.
	lc, err := lrc.New(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(t, lc, 17)
	data := randBytes(15, 4*1024)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	c.Network().Reset()
	locs, _ := c.BlockLocations("f")
	c.DecommissionMachine(locs[0][0])
	report, err := c.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if report.RepairedStriped != 1 {
		t.Fatalf("LRC fix report %+v", report)
	}
	// LRC(4,2,2) repairs a data block from its local group: 2 blocks.
	if report.CrossRackBytes != 2*1024 {
		t.Fatalf("LRC repair moved %d bytes, want %d", report.CrossRackBytes, 2*1024)
	}
	got, _ := c.ReadFile("f")
	if !bytes.Equal(got, data) {
		t.Fatal("LRC repair wrong bytes")
	}
}

func TestProductionShapeTenFour(t *testing.T) {
	// The paper's exact production geometry: (10,4) stripes across 14+
	// racks. One full stripe, a machine failure, a fixer pass, and the
	// §2.1 invariants.
	pb, err := core.New(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := newForTest(t, Config{
		Topology:    cluster.Topology{Racks: 20, MachinesPerRack: 150}, // 3000 machines
		Code:        pb,
		BlockSize:   4096,
		Replication: 3,
		Seed:        104,
	})
	data := randBytes(104, 10*4096)
	if err := c.WriteFile("warehouse/part-0", data); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("warehouse/part-0"); err != nil {
		t.Fatal(err)
	}
	sid, _ := stripeOf(t, c, "warehouse/part-0", 0)
	racks := stripeRacks(t, c, sid)
	if len(racks) != 14 {
		t.Fatalf("stripe spans %d blocks, want 14", len(racks))
	}
	c.Network().Reset()
	locs, _ := c.BlockLocations("warehouse/part-0")
	c.DecommissionMachine(locs[4][0]) // group-2 member: 13 half-blocks
	report, err := c.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if report.RepairedStriped != 1 {
		t.Fatalf("repaired %d, want 1", report.RepairedStriped)
	}
	// (10+3)/2 block-equivalents at 4096 B: 26624 bytes.
	if report.CrossRackBytes != 13*4096/2 {
		t.Fatalf("repair moved %d bytes, want %d (13 half-blocks)", report.CrossRackBytes, 13*4096/2)
	}
	got, _ := c.ReadFile("warehouse/part-0")
	if !bytes.Equal(got, data) {
		t.Fatal("production-shape repair corrupted data")
	}
}

func TestFixerScansAllBlocksNoFailures(t *testing.T) {
	c := testCluster(t, rsCode(t), 18)
	if err := c.WriteFile("f", randBytes(16, 2048)); err != nil {
		t.Fatal(err)
	}
	report, err := c.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if report.ScannedBlocks != 2 {
		t.Fatalf("scanned %d, want 2", report.ScannedBlocks)
	}
	if report.RepairedStriped != 0 || report.ReReplicated != 0 || len(report.Unrecoverable) != 0 {
		t.Fatalf("healthy cluster fix report %+v", report)
	}
	if report.CrossRackBytes != 0 {
		t.Fatal("healthy pass moved bytes")
	}
}

// TestBlockFixerParallelismParity runs the same multi-stripe failure
// scenario at several engine parallelism settings and asserts identical
// repair outcomes, restored bytes, and cross-rack traffic: routing the
// fixer through the concurrent stripe-repair engine must not change
// what the paper's measurement observes.
func TestBlockFixerParallelismParity(t *testing.T) {
	run := func(par int) (*FixReport, int64, []byte) {
		c := withFixerWorkers(newForTest(t, Config{
			Topology:    cluster.Topology{Racks: 20, MachinesPerRack: 3},
			Code:        pbCode(t),
			BlockSize:   1024,
			Replication: 3,
			Seed:        13,
		}), par)
		data := randBytes(77, 24*1024)
		if err := c.WriteFile("f", data); err != nil {
			t.Fatal(err)
		}
		if err := c.RaidFile("f"); err != nil {
			t.Fatal(err)
		}
		c.Network().Reset()
		// Take down one machine per stripe (blocks 0, 5, 10, 15 live in
		// stripes 0..3 of the (4,2) code) so several stripes each lose a
		// recoverable number of blocks.
		locs, _ := c.BlockLocations("f")
		downed := make(map[int]bool)
		for _, b := range []int{0, 5, 10, 15} {
			m := locs[b][0]
			if !downed[m] {
				downed[m] = true
				c.DecommissionMachine(m)
			}
		}
		report, err := c.RunBlockFixer()
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ReadFile("f")
		if err != nil {
			t.Fatal(err)
		}
		return report, c.Network().CrossRackBytes(), got
	}

	baseReport, baseBytes, baseData := run(1)
	if baseReport.RepairedStriped == 0 {
		t.Fatal("scenario repaired no striped blocks; test is vacuous")
	}
	for _, par := range []int{2, 4} {
		report, netBytes, data := run(par)
		if report.RepairedStriped != baseReport.RepairedStriped {
			t.Fatalf("par=%d repaired %d blocks, serial repaired %d",
				par, report.RepairedStriped, baseReport.RepairedStriped)
		}
		if len(report.Unrecoverable) != len(baseReport.Unrecoverable) {
			t.Fatalf("par=%d unrecoverable %v, serial %v",
				par, report.Unrecoverable, baseReport.Unrecoverable)
		}
		if netBytes != baseBytes {
			t.Fatalf("par=%d moved %d cross-rack bytes, serial moved %d", par, netBytes, baseBytes)
		}
		if !bytes.Equal(data, baseData) {
			t.Fatalf("par=%d restored different bytes than serial", par)
		}
	}
}

func TestReadRangeRejectsInvalidRanges(t *testing.T) {
	// Regression: a negative offset used to panic with a slice
	// out-of-range inside data[offset:]; it must return an error.
	st := openStore(t)
	if err := st.Put(7, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	d := &dataNode{id: 0, alive: true, store: st}
	if _, err := d.readRange(7, -1, 4); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := d.readRange(7, 0, -4); err == nil {
		t.Fatal("negative length accepted")
	}
	if _, err := d.readRange(7, -10, -10); err == nil {
		t.Fatal("negative offset and length accepted")
	}
	// Valid reads still work, including zero-padded reads past the end.
	got, err := d.readRange(7, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "cde" {
		t.Fatalf("readRange = %q, want %q", got, "cde")
	}
	got, err = d.readRange(7, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ef\x00\x00\x00\x00" {
		t.Fatalf("padded readRange = %q", got)
	}
	if _, err := d.readRange(7, 100, 2); err != nil {
		t.Fatalf("offset past end must zero-pad, got error: %v", err)
	}
}
