package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/repairmgr"
	"repro/internal/telemetry"
	"repro/internal/testutil/leakcheck"
)

// startPersistentManagedSystem is startManagedSystem with every
// datanode backed by an on-disk extent store (onDisk), plus telemetry;
// the tests assert on the stores' scan counters, on the registry it
// returns.
func startPersistentManagedSystem(t *testing.T, mcfg repairmgr.Config) (*System, *telemetry.Registry) {
	t.Helper()
	cfg, ext := onDisk(t, testConfig(testCodecs(t)[0])) // rs(4,2)
	return startSystem(t, cfg, WithRepairManager(mcfg), WithTelemetry(TelemetryConfig{})), ext
}

// TestPersistentRestartWithinGraceZeroRepairBytes is the honest
// version of the grace-window save, end to end: the kill CLOSES the
// victim's store (its in-memory block index is gone), the restart
// rebuilds the index by scanning segment files on disk, the recovered
// inventory serves CRC-verified bytes — and because the machine came
// back inside the grace window with its data provably intact, the
// repair manager moves zero repair bytes. Before the persistent store,
// this scenario passed vacuously: "restart" just flipped a liveness
// flag over a map that was never dropped.
func TestPersistentRestartWithinGraceZeroRepairBytes(t *testing.T) {
	grace := 2 * time.Second
	sys, ext := startPersistentManagedSystem(t, repairmgr.Config{
		SuspectAfter: 150 * time.Millisecond,
		GraceWindow:  grace,
		PollInterval: 20 * time.Millisecond,
	})
	files := preloadRaided(t, sys, 2)
	locs, err := sys.Cluster().BlockLocations("f-0")
	if err != nil {
		t.Fatal(err)
	}
	victim := locs[0][0]
	bytesBefore := sys.Cluster().Network().CrossRackBytes()
	scansBefore := ext.Snapshot().Counters["extent_scan_records_total"]

	killedAt := time.Now()
	if err := sys.KillDataNode(victim); err != nil {
		t.Fatal(err)
	}
	// The kill is a real crash: the machine's store handle is closed
	// and its in-memory index discarded. BlocksOn still answers — from
	// namenode metadata, the only surviving view — because the repair
	// manager's grace-window estimate asks exactly this about machines
	// that just died.
	if got := sys.Cluster().BlocksOn(victim); len(got) == 0 {
		t.Fatal("metadata forgot the crashed machine's blocks")
	}

	waitSuspect(t, sys, victim, grace/2)
	if err := sys.RestartDataNode(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, grace/2, "victim back to alive", func() bool {
		return sys.RepairManager().NodeState(victim) == repairmgr.StateAlive
	})

	// The restart rebuilt the index from disk: segment records were
	// scanned, and the machine again reports inventory.
	if got := ext.Snapshot().Counters["extent_scan_records_total"]; got <= scansBefore {
		t.Fatalf("restart scanned no segment records (%d -> %d)", scansBefore, got)
	}
	if got := sys.Cluster().BlocksOn(victim); len(got) == 0 {
		t.Fatal("restarted machine recovered no blocks from disk")
	}

	// Sleep out the would-have-been death deadline, then assert the
	// save: zero repairs, zero repair traffic.
	time.Sleep(time.Until(killedAt.Add(150*time.Millisecond + grace + 500*time.Millisecond)))
	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.RepairStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.RepairsDone != 0 || st.QueueDepth != 0 {
		t.Fatalf("restart-from-disk triggered repairs: %+v", st)
	}
	if st.AvoidedRepairs == 0 {
		t.Fatalf("grace-window save not accounted: %+v", st)
	}
	if got := sys.Cluster().Network().CrossRackBytes() - bytesBefore; got != 0 {
		t.Fatalf("kill-then-restart-from-disk moved %d repair bytes, want 0", got)
	}

	// CRC-verified inventory: every byte of every file reads back
	// identically through the wire — each datanode read re-verifies the
	// stored payload's record CRC against the disk.
	for name, want := range files {
		got, err := cl.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: content differs after restart-from-disk", name)
		}
	}
	if c := cl.Counters(); c.DegradedBlocks != 0 || c.CorruptReplicas != 0 {
		t.Fatalf("post-recovery reads were not healthy: %+v", c)
	}
}

// TestPersistentCorruptedSegmentTargetedRepair is the second
// acceptance property: flip bytes in ONE replica's segment file; the
// scrubber evicts exactly that replica, the fixer re-replicates only
// the affected block, and reads stay byte-identical throughout.
func TestPersistentCorruptedSegmentTargetedRepair(t *testing.T) {
	leakcheck.Cleanup(t)
	code := testCodecs(t)[0]
	cfg, ext := onDisk(t, testConfig(code))
	sys, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })

	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	want := make(map[string][]byte)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("f-%d", i)
		data := bytes.Repeat([]byte{byte('a' + i)}, 2*4096+100)
		if err := cl.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
		want[name] = data
	}

	// Rot one byte of f-1's first block on its first holder — ON DISK.
	_, info, err := sys.Cluster().FileBlocks("f-1")
	if err != nil {
		t.Fatal(err)
	}
	victimBlock := info[0].ID
	locs, err := sys.Cluster().BlockLocations("f-1")
	if err != nil {
		t.Fatal(err)
	}
	victimMachine := locs[0][0]
	if err := sys.Cluster().InjectBitRot(victimMachine, victimBlock, 99); err != nil {
		t.Fatal(err)
	}

	// The scrubber finds it via the store's disk CRC and evicts only
	// that replica.
	rep, err := sys.Cluster().RunScrubber()
	if err != nil {
		t.Fatalf("scrub pass aborted: %v", err)
	}
	if rep.CorruptReplicas != 1 || len(rep.AffectedBlocks) != 1 || rep.AffectedBlocks[0] != victimBlock {
		t.Fatalf("scrub evicted %d replicas, affected %v; want 1 and [%d]",
			rep.CorruptReplicas, rep.AffectedBlocks, victimBlock)
	}
	if n := ext.Snapshot().Counters["extent_crc_failures_total"]; n == 0 {
		t.Fatal("corruption was not detected at the extent store")
	}

	// Targeted re-repair: exactly one block re-replicated, nothing else.
	fix, err := cl.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if fix.ReReplicated != 1 || fix.RepairedStriped != 0 || fix.Unrecoverable != 0 {
		t.Fatalf("fixer did non-targeted work: %+v", fix)
	}
	for name, data := range want {
		got, err := cl.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: content differs after targeted repair", name)
		}
	}
}

// TestServeCorruptReplicaFallsBackDegraded: when a datanode refuses a
// raided block's only replica on checksum grounds, the CLIENT treats
// it like a dead replica — counts it, reconstructs through the stripe,
// and returns correct bytes.
func TestServeCorruptReplicaFallsBackDegraded(t *testing.T) {
	leakcheck.Cleanup(t)
	code := testCodecs(t)[0]
	cfg, _ := onDisk(t, testConfig(code))
	sys, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	files := preloadRaided(t, sys, 1)

	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	_, info, err := sys.Cluster().FileBlocks("f-0")
	if err != nil {
		t.Fatal(err)
	}
	locs, err := sys.Cluster().BlockLocations("f-0")
	if err != nil {
		t.Fatal(err)
	}
	// A raided block holds exactly one replica; rot it on disk.
	for _, m := range locs[0] {
		if err := sys.Cluster().InjectBitRot(m, info[0].ID, 5); err != nil {
			t.Fatal(err)
		}
	}

	got, err := cl.ReadFile("f-0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, files["f-0"]) {
		t.Fatal("degraded read returned wrong bytes")
	}
	c := cl.Counters()
	if c.CorruptReplicas == 0 {
		t.Fatalf("corrupt replica not counted: %+v", c)
	}
	if c.DegradedBlocks == 0 {
		t.Fatalf("read did not take the degraded path: %+v", c)
	}
}

// TestCorruptReplicaIsMatchedByItsCodeNotItsWording: what makes a
// failed dn.read a corrupt replica is the code the datanode's reply
// carries, never the text beside it. A datanode whose error merely
// quotes the checksum sentinel's phrase is an ordinary failed replica —
// read around, not counted; real bit rot arrives with the code, is
// counted, and is read around just the same.
func TestCorruptReplicaIsMatchedByItsCodeNotItsWording(t *testing.T) {
	cfg, _ := onDisk(t, testConfig(testCodecs(t)[0]))
	sys := startSystem(t, cfg)
	data := preloadRaided(t, sys, 1)["f-0"]
	_, blocks, err := sys.Cluster().FileBlocks("f-0")
	if err != nil {
		t.Fatal(err)
	}
	holder := blocks[0].Locations[0] // raided: the block's only replica

	quoting, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer quoting.Close()
	quoting.mu.Lock()
	quoting.addrs[holder] = fakeDataNode(t, func(c net.Conn, req *request) error {
		return writeFrame(c, errResponse(fmt.Errorf("disk 3 says %q, whatever that means", hdfs.ErrCorruptReplica)), nil)
	})
	quoting.mu.Unlock()
	_, err = quoting.dnRead(holder, int64(blocks[0].ID), 0, blocks[0].Size, nil, nil)
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != codeOther || !strings.Contains(remote.Msg, hdfs.ErrCorruptReplica.Error()) {
		t.Fatalf("the quoting datanode's error arrived as %#v", err)
	}
	if got, err := quoting.ReadFile("f-0"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read around the quoting datanode: %v", err)
	}
	if c := quoting.Counters(); c.CorruptReplicas != 0 || c.DegradedBlocks != 1 {
		t.Fatalf("an error that only quotes the sentinel was counted as bit rot: %+v", c)
	}

	if err := sys.Cluster().InjectBitRot(holder, blocks[0].ID, 5); err != nil {
		t.Fatal(err)
	}
	honest, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer honest.Close()
	_, err = honest.dnRead(holder, int64(blocks[0].ID), 0, blocks[0].Size, nil, nil)
	if !errors.As(err, &remote) || remote.Code != codeCorruptReplica {
		t.Fatalf("a checksum refusal arrived as %#v, want code %d", err, codeCorruptReplica)
	}
	if got, err := honest.ReadFile("f-0"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read around the rotted replica: %v", err)
	}
	if c := honest.Counters(); c.CorruptReplicas != 1 || c.DegradedBlocks != 1 {
		t.Fatalf("bit rot was not counted once and reconstructed around: %+v", c)
	}
}

// TestDataDirStoresSyncOnInterval: datanode stores on
// extent.FsyncInterval (as onDisk builds them) reach stable storage
// while the system keeps taking writes, without anyone closing a store
// or calling Sync — the interval is checked at append time, on the
// serving write path. (Under FsyncNever the histogram below only moves
// at Close, segment seal, or compaction — none of which happen here.)
func TestDataDirStoresSyncOnInterval(t *testing.T) {
	cfg, ext := onDisk(t, testConfig(testCodecs(t)[0]))
	sys := startSystem(t, cfg)
	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	data := bytes.Repeat([]byte{3}, 4096)
	seq := 0
	waitFor(t, 10*time.Second, "an interval fsync on a store that keeps taking appends", func() bool {
		if err := cl.WriteFile(fmt.Sprintf("f-%d", seq), data); err != nil {
			t.Fatal(err)
		}
		seq++
		return ext.Snapshot().Histograms["extent_fsync_seconds"].Count > 0
	})
}

// TestClientOutlivesTimeout pins the per-exchange deadline semantics:
// a client whose configured timeout is far shorter than its lifetime
// keeps working — across idle gaps longer than the timeout and across
// request sequences whose total wall time exceeds it many times over.
// Under dial-time (or never-disarmed) deadlines, the exchanges after
// the first gap fail with i/o timeouts.
func TestClientOutlivesTimeout(t *testing.T) {
	leakcheck.Cleanup(t)
	code := testCodecs(t)[0]
	sys, err := Start(hdfs.Config{
		Topology:    cluster.Topology{Racks: code.TotalShards() + 2, MachinesPerRack: 2},
		Code:        code,
		BlockSize:   4096,
		Replication: 3,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })

	timeout := 250 * time.Millisecond
	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.timeout = timeout
	data := bytes.Repeat([]byte{7}, 4096+17)
	if err := cl.WriteFile("long-lived", data); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	for i := 0; time.Since(start) < 3*timeout; i++ {
		got, err := cl.ReadFile("long-lived")
		if err != nil {
			t.Fatalf("request %d at +%v (timeout %v): %v", i, time.Since(start), timeout, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("request %d returned wrong bytes", i)
		}
		// Idle the pooled connections past the timeout mid-sequence: a
		// deadline left armed from the previous exchange would fire here.
		if i == 1 {
			time.Sleep(timeout + 50*time.Millisecond)
		}
	}
}
