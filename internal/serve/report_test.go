package serve

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/hdfs"
	"repro/internal/repairmgr"
)

// Report tests: a replica a reader refuses on checksum grounds is
// reported to the namenode ("replica.report"), which re-reads it,
// evicts it only if its own read fails too, and hands the block to the
// repair manager.

// TestReportedRotIsRebuiltWithinOnePoll: one stripe loses two replicas
// to rot — a block over sendMinBytes, which its datanode sends and the
// reader refuses, and a block of sendMinBytes or less, which the
// datanode copies and refuses itself. One ReadFile meets both and
// reports both; the poll that takes the reports rebuilds them, inside
// the default grace window, and a fresh reader then reads every block
// from a replica.
func TestReportedRotIsRebuiltWithinOnePoll(t *testing.T) {
	cfg := testConfig(testCodecs(t)[0]) // rs(4,2)
	cfg.BlockSize = 2 * sendMinBytes
	mcfg := repairmgr.DefaultConfig()
	mcfg.PollInterval = 20 * time.Millisecond
	sys := startSystem(t, cfg, withRepairConfig(mcfg), WithTelemetry(TelemetryConfig{}))
	cl := dial(t, sys)
	data := make([]byte, 3*cfg.BlockSize+sendMinBytes/2)
	rand.New(rand.NewSource(5)).Read(data)
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
	sent, copied := blocks[0], blocks[3]
	if sent.Size <= sendMinBytes || copied.Size > sendMinBytes || sent.Stripe != copied.Stripe {
		t.Fatalf("blocks of %d and %d bytes in stripes %d and %d: want one sent and one copied in one stripe", sent.Size, copied.Size, sent.Stripe, copied.Stripe)
	}
	for _, b := range []hdfs.BlockInfo{sent, copied} {
		if err := sys.Cluster().InjectBitRot(b.Locations[0], b.ID, 5); err != nil {
			t.Fatal(err)
		}
	}

	reader := dial(t, sys)
	if got, err := reader.ReadFile("f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadFile around two rotted replicas: %v", err)
	}
	if c := reader.Counters(); c.CorruptReplicas != 2 || c.DegradedBlocks != 2 {
		t.Fatalf("the reader did not refuse both rotted replicas once and rebuild both: %+v", c)
	}
	if n := reports(sys, hdfs.ReplicaEvicted); n != 2 {
		t.Fatalf("%d reports evicted a replica, want 2", n)
	}
	// The reports were answered before ReadFile returned. A poll that
	// was running then may have taken them or not; the one after it has.
	polled := sys.mgr.Status().PollCount
	waitFor(t, 10*time.Second, "two manager polls", func() bool { return sys.mgr.Status().PollCount >= polled+2 })
	if st := sys.mgr.Status(); st.RepairsDone != 1 || st.QueueDepth != 0 || st.DegradedStripes != 0 {
		t.Fatalf("the poll after the reports did not rebuild the stripe: %+v", st)
	}
	if h := sys.Cluster().Health(); !h.Healthy() {
		t.Fatalf("cluster after the repair: %+v", h)
	}

	fresh := dial(t, sys)
	if got, err := fresh.ReadFile("f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadFile after the repair: %v", err)
	}
	if c := fresh.Counters(); c.CorruptReplicas != 0 || c.DegradedBlocks != 0 {
		t.Fatalf("a reader after the repair still met the rot: %+v", c)
	}
}

// TestReplicaReportVerdicts: a report of a sound replica, or of a
// replica its machine does not hold, changes nothing and is counted
// under its verdict; a report naming a machine outside [0, Machines())
// or an unknown block is refused with an error and counted under none.
func TestReplicaReportVerdicts(t *testing.T) {
	sys := startTestSystem(t, testCodecs(t)[0], WithTelemetry(TelemetryConfig{}))
	lendFile(t, sys, 4*lendBlock)
	_, blocks, err := sys.Cluster().FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	cl := dial(t, sys)
	b := blocks[0]
	stranger := -1
	for m := range sys.Cluster().Machines() {
		if !slices.Contains(b.Locations, m) {
			stranger = m
			break
		}
	}
	report := func(block int64, machine int) error {
		_, err := cl.nameCall(&request{Method: methodReportReplica, Block: block, Machine: machine}, nil)
		return err
	}
	if err := report(int64(b.ID), b.Locations[0]); err != nil {
		t.Fatalf("a report of a sound replica: %v", err)
	}
	if err := report(int64(b.ID), stranger); err != nil {
		t.Fatalf("a report of a replica machine %d does not hold: %v", stranger, err)
	}
	for _, bad := range []struct {
		block   int64
		machine int
	}{{int64(b.ID), -1}, {int64(b.ID), sys.Cluster().Machines()}, {1 << 40, b.Locations[0]}} {
		if err := report(bad.block, bad.machine); err == nil {
			t.Fatalf("a report of block %d on machine %d was accepted", bad.block, bad.machine)
		}
	}
	want := map[hdfs.ReplicaVerdict]int64{hdfs.ReplicaSound: 1, hdfs.ReplicaNotHeld: 1, hdfs.ReplicaEvicted: 0}
	for v, n := range want {
		if got := reports(sys, v); got != n {
			t.Fatalf("%d reports counted %s, want %d", got, v, n)
		}
	}
	info, ok := sys.Cluster().BlockInfoByID(b.ID)
	if !ok || !slices.Equal(info.Locations, b.Locations) {
		t.Fatalf("block %d is held by %v after the reports, want %v", b.ID, info.Locations, b.Locations)
	}
	if h := sys.Cluster().Health(); !h.Healthy() {
		t.Fatalf("health after the reports: %+v", h)
	}
}
