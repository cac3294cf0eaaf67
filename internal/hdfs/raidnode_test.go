package hdfs

import (
	"bytes"
	"testing"
	"time"
)

func TestRaidPolicySelectsColdFiles(t *testing.T) {
	c := testCluster(t, rsCode(t), 30)
	if err := c.WriteFile("old", randBytes(1, 4*1024)); err != nil {
		t.Fatal(err)
	}
	c.AdvanceClock(100 * 24 * time.Hour)
	if err := c.WriteFile("new", randBytes(2, 4*1024)); err != nil {
		t.Fatal(err)
	}

	got := c.RaidCandidates(DefaultRaidPolicy())
	if len(got) != 1 || got[0] != "old" {
		t.Fatalf("candidates = %v, want [old]", got)
	}
}

func TestRaidPolicyAccessResetsAge(t *testing.T) {
	c := testCluster(t, rsCode(t), 31)
	if err := c.WriteFile("f", randBytes(3, 2048)); err != nil {
		t.Fatal(err)
	}
	c.AdvanceClock(80 * 24 * time.Hour)
	// A read within the window keeps the file hot.
	if _, err := c.ReadFile("f"); err != nil {
		t.Fatal(err)
	}
	c.AdvanceClock(80 * 24 * time.Hour)
	if got := c.RaidCandidates(DefaultRaidPolicy()); len(got) != 0 {
		t.Fatalf("recently read file proposed for raiding: %v", got)
	}
	c.AdvanceClock(11 * 24 * time.Hour) // now 91 days since the read
	if got := c.RaidCandidates(DefaultRaidPolicy()); len(got) != 1 {
		t.Fatalf("cold file not proposed: %v", got)
	}
}

func TestRunRaidNodeReclaimsStorage(t *testing.T) {
	c := testCluster(t, rsCode(t), 32)
	data := randBytes(4, 4*1024) // one full (4,2) stripe
	if err := c.WriteFile("cold", data); err != nil {
		t.Fatal(err)
	}
	c.AdvanceClock(DefaultColdAge)
	report, err := c.RunRaidNode(DefaultRaidPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if report.FilesRaided != 1 || report.BlocksEncoded != 4 {
		t.Fatalf("report %+v", report)
	}
	// 3x -> 1.5x of 4 KB: 6 KB reclaimed.
	if report.StorageReclaimedBytes != 6*1024 {
		t.Fatalf("reclaimed %d bytes, want %d", report.StorageReclaimedBytes, 6*1024)
	}
	if report.CrossRackBytes <= 0 {
		t.Fatal("raiding moved no bytes: encoding is not free")
	}
	info, _ := c.Stat("cold")
	if !info.Raided {
		t.Fatal("file not raided")
	}
	got, err := c.ReadFile("cold")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("raid corrupted contents")
	}

	// A second pass finds nothing to do.
	report2, err := c.RunRaidNode(DefaultRaidPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if report2.FilesRaided != 0 {
		t.Fatal("already-raided file raided again")
	}
}

func TestClockAccessors(t *testing.T) {
	c := testCluster(t, rsCode(t), 33)
	if c.Now() != 0 {
		t.Fatal("clock must start at zero")
	}
	c.AdvanceClock(5 * time.Hour)
	c.AdvanceClock(-3 * time.Hour) // negative advances are ignored
	if c.Now() != 5*time.Hour {
		t.Fatalf("clock = %v, want 5h", c.Now())
	}
}

func TestScrubberDetectsBitRot(t *testing.T) {
	c := testCluster(t, pbCode(t), 34)
	data := randBytes(5, 4*1024)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("f"); err != nil {
		t.Fatal(err)
	}

	// Rot one byte of block 2's only replica, behind the system's back.
	locs, _ := c.BlockLocations("f")
	fm := only(t, c).files["f"]
	target := fm.blocks[2]
	if err := c.InjectBitRot(locs[2][0], target, 100); err != nil {
		t.Fatal(err)
	}

	report, err := c.RunScrubber()
	if err != nil {
		t.Fatal(err)
	}
	if report.CorruptReplicas != 1 {
		t.Fatalf("scrubber found %d corrupt replicas, want 1", report.CorruptReplicas)
	}
	if len(report.AffectedBlocks) != 1 || report.AffectedBlocks[0] != target {
		t.Fatalf("affected blocks %v, want [%d]", report.AffectedBlocks, target)
	}

	// The fixer reconstructs the evicted replica; contents are intact.
	fix, err := c.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if fix.RepairedStriped != 1 {
		t.Fatalf("fixer repaired %d, want 1", fix.RepairedStriped)
	}
	got, err := c.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("bit rot survived scrub + fix")
	}
	// A clean pass finds nothing.
	report2, _ := c.RunScrubber()
	if report2.CorruptReplicas != 0 {
		t.Fatal("clean cluster reported corruption")
	}
}

func TestScrubberChecksReplicatedFiles(t *testing.T) {
	c := testCluster(t, rsCode(t), 35)
	data := randBytes(6, 1024)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("f")
	id := only(t, c).files["f"].blocks[0]
	if err := c.InjectBitRot(locs[0][1], id, 0); err != nil {
		t.Fatal(err)
	}
	report, err := c.RunScrubber()
	if err != nil {
		t.Fatal(err)
	}
	if report.CorruptReplicas != 1 {
		t.Fatalf("found %d corrupt replicas, want 1", report.CorruptReplicas)
	}
	// Two clean replicas remain; fixer restores the third.
	fix, err := c.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if fix.ReReplicated != 1 {
		t.Fatalf("re-replicated %d, want 1", fix.ReReplicated)
	}
	got, _ := c.ReadFile("f")
	if !bytes.Equal(got, data) {
		t.Fatal("wrong bytes after scrub + re-replication")
	}
}

func TestInjectBitRotValidation(t *testing.T) {
	c := testCluster(t, rsCode(t), 36)
	if err := c.WriteFile("f", randBytes(7, 100)); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("f")
	id := only(t, c).files["f"].blocks[0]
	if err := c.InjectBitRot(locs[0][0], id, 1000); err == nil {
		t.Fatal("out-of-range offset accepted")
	}
	other := (locs[0][0] + 1) % c.cfg.Topology.Machines()
	if !containsInt(locs[0], other) {
		if err := c.InjectBitRot(other, id, 0); err == nil {
			t.Fatal("bit rot on non-holder accepted")
		}
	}
}

func TestClusterStats(t *testing.T) {
	c := testCluster(t, rsCode(t), 38)
	if err := c.WriteFile("hot", randBytes(9, 2048)); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile("cold", randBytes(10, 4*1024)); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("cold"); err != nil {
		t.Fatal(err)
	}
	c.FailMachine(3)
	s := c.Stats()
	if s.Files != 2 || s.RaidedFiles != 1 {
		t.Fatalf("file counts %+v", s)
	}
	if s.DataBlocks != 6 { // 2 (hot) + 4 (cold)
		t.Fatalf("data blocks %d, want 6", s.DataBlocks)
	}
	if s.ParityBlocks != 2 || s.Stripes != 1 {
		t.Fatalf("parity/stripes %+v", s)
	}
	if s.LiveMachines != c.cfg.Topology.Machines()-1 {
		t.Fatalf("live machines %d", s.LiveMachines)
	}
	if s.LogicalBytes != 2048+4096 {
		t.Fatalf("logical %d", s.LogicalBytes)
	}
	// hot: 3 x 2048; cold raided: 6 x 1024.
	if s.PhysicalBytes != 3*2048+6*1024 {
		t.Fatalf("physical %d", s.PhysicalBytes)
	}
	c.RestoreMachine(3)
}

func TestBlocksOn(t *testing.T) {
	c := testCluster(t, rsCode(t), 37)
	if err := c.WriteFile("f", randBytes(8, 1024)); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("f")
	ids := c.BlocksOn(locs[0][0])
	if len(ids) == 0 {
		t.Fatal("holder reports no blocks")
	}
	found := false
	for _, id := range ids {
		if id == only(t, c).files["f"].blocks[0] {
			found = true
		}
	}
	if !found {
		t.Fatal("BlocksOn missed the block")
	}
}
