package serve

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ec"
	"repro/internal/hdfs"
)

// Sending tests: a whole-block dn.read marked "the caller checks the
// block's CRC-32" (field 11) leaves a datanode backed by the extent
// store by sendfile(2), unread and unchecked, and the reader checks it.
// Every other read — a small block, a node cache, a range — is read and
// checked by the datanode, as before.

// sendBlock is the block size of the sending tests: large enough that a
// whole-block read is sent.
const sendBlock = 64 << 10

// sendSystem starts a telemetry-instrumented system of sendBlock-sized
// blocks (NodeCacheBytes nodeCache) and stores one raided file "f" of
// four blocks in it.
func sendSystem(t *testing.T, nodeCache int64) (*System, []byte, []hdfs.BlockInfo) {
	t.Helper()
	if !sendfileWorks {
		t.Skip("no sendfile(2) on this system: every read takes the copy path")
	}
	cfg := testConfig(testCodecs(t)[0])
	cfg.BlockSize = sendBlock
	cfg.NodeCacheBytes = nodeCache
	sys := startSystem(t, cfg, WithTelemetry(TelemetryConfig{}))
	cl := dial(t, sys)
	data := make([]byte, 4*sendBlock)
	rand.New(rand.NewSource(11)).Read(data)
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
	return sys, data, blocks
}

func dial(t *testing.T, sys *System) *Client {
	t.Helper()
	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// markedRead reads block b whole from machine m, marked.
func markedRead(cl *Client, m int, b hdfs.BlockInfo) ([]byte, error) {
	return cl.dnCall(m, &request{Method: methodDNRead, Block: int64(b.ID), Length: b.Size, CallerChecks: true}, cl.timeout, nil)
}

func counter(sys *System, name string) int64 { return sys.Telemetry().Snapshot().Counters[name] }

// reports reads the namenode's replica-report counter of one verdict.
func reports(sys *System, v hdfs.ReplicaVerdict) int64 {
	return counter(sys, `serve_replica_reports_total{verdict="`+v.String()+`"}`)
}

// refusedAsCorrupt reports whether err is a datanode's own refusal of
// a replica that failed its checksum.
func refusedAsCorrupt(err error) bool {
	var remote *RemoteError
	return errors.As(err, &remote) && remote.Code == codeCorruptReplica
}

// TestSentReplicaIsCheckedByTheReader: a marked read of a sound replica
// is sent whole, and its bytes count as the datanode's response bytes.
// A replica rotted on disk is sent just the same — the datanode checks
// nothing, so hdfs_corrupt_reads_total stays put — while an unmarked
// read of it is refused by the datanode; ReadFile refuses the sent rot
// by the block's CRC-32, counts one corrupt replica, reports it, and
// returns the file's bytes through the stripe. The report's one read of
// the replica — the namenode's, through the datanode's checked read —
// is refused and evicts it.
func TestSentReplicaIsCheckedByTheReader(t *testing.T) {
	sys, data, blocks := sendSystem(t, 0)
	b := blocks[0]
	holder := b.Locations[0]
	cl := dial(t, sys)
	const sentBytes = `rpc_response_bytes_total{role="datanode",method="dn.read"}`
	before := counter(sys, sentBytes)
	if got, err := markedRead(cl, holder, b); err != nil || !bytes.Equal(got, data[:b.Size]) {
		t.Fatalf("a marked read of a sound replica: %d bytes (right ones: %v), %v", len(got), bytes.Equal(got, data[:b.Size]), err)
	}
	if n := counter(sys, sentBytes) - before; n != b.Size {
		t.Fatalf("the send counted %d response bytes, want %d", n, b.Size)
	}

	if err := sys.Cluster().InjectBitRot(holder, b.ID, 5); err != nil {
		t.Fatal(err)
	}
	refused := counter(sys, "hdfs_corrupt_reads_total")
	if got, err := markedRead(cl, holder, b); err != nil || bytes.Equal(got, data[:b.Size]) {
		t.Fatalf("a marked read of rot: the rot in it %v, %v", !bytes.Equal(got, data[:b.Size]), err)
	}
	if n := counter(sys, "hdfs_corrupt_reads_total"); n != refused {
		t.Fatalf("the datanode refused %d marked reads: a sent replica is the reader's to check", n-refused)
	}
	if _, err := cl.dnRead(holder, int64(b.ID), 0, b.Size, nil); !refusedAsCorrupt(err) {
		t.Fatalf("an unmarked read of rot: %v, want the datanode's refusal", err)
	}
	refused = counter(sys, "hdfs_corrupt_reads_total")

	reader := dial(t, sys)
	if got, err := reader.ReadFile("f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadFile around a sent rotted replica: %v", err)
	}
	if c := reader.Counters(); c.CorruptReplicas != 1 || c.DegradedBlocks != 1 {
		t.Fatalf("the reader did not refuse the rot once and rebuild the block: %+v", c)
	}
	if n := counter(sys, "hdfs_corrupt_reads_total") - refused; n != 1 {
		t.Fatalf("%d checked reads of the rot, want 1 (the report's; a sent replica is the reader's to check)", n)
	}
	if n := reports(sys, hdfs.ReplicaEvicted); n != 1 {
		t.Fatalf("%d reports evicted a replica, want 1", n)
	}
}

// TestNodeCacheRefusesRotItself: a datanode backed by the node cache
// serves from memory and has no file to send from, so a marked read
// takes the copy path, and the datanode refuses rot itself — and so
// does the report's read of the replica, which evicts it.
func TestNodeCacheRefusesRotItself(t *testing.T) {
	sys, data, blocks := sendSystem(t, 1<<20)
	b := blocks[0]
	cl := dial(t, sys)
	if got, err := markedRead(cl, b.Locations[0], b); err != nil || !bytes.Equal(got, data[:b.Size]) {
		t.Fatalf("a marked read from a node cache: %v", err)
	}
	if err := sys.Cluster().InjectBitRot(b.Locations[0], b.ID, 5); err != nil {
		t.Fatal(err)
	}
	refused := counter(sys, "hdfs_corrupt_reads_total")
	if _, err := markedRead(cl, b.Locations[0], b); !refusedAsCorrupt(err) {
		t.Fatalf("a marked read of rot behind a node cache: %v, want the datanode's refusal", err)
	}
	reader := dial(t, sys)
	if got, err := reader.ReadFile("f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadFile around a refused replica: %v", err)
	}
	if c := reader.Counters(); c.CorruptReplicas != 1 || c.DegradedBlocks != 1 {
		t.Fatalf("the refusal was not counted once and read around: %+v", c)
	}
	if n := counter(sys, "hdfs_corrupt_reads_total") - refused; n != 3 {
		t.Fatalf("the datanode refused %d reads of rot, want 3 (the marked read, ReadFile's and the report's)", n)
	}
	if n := reports(sys, hdfs.ReplicaEvicted); n != 1 {
		t.Fatalf("%d reports evicted a replica, want 1", n)
	}
}

// TestSmallBlockIsNotSent: a block of sendMinBytes is read and checked
// by the datanode even when the read is marked — one small reply is
// cheaper copied than sent — so the datanode refuses its rot itself.
func TestSmallBlockIsNotSent(t *testing.T) {
	sys := startTestSystem(t, testCodecs(t)[0])
	data := lendFile(t, sys, lendBlock)
	_, blocks, err := sys.Cluster().FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	b := blocks[0]
	if b.Size != sendMinBytes {
		t.Fatalf("block of %d bytes, want %d", b.Size, sendMinBytes)
	}
	cl := dial(t, sys)
	if got, err := markedRead(cl, b.Locations[0], b); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("a marked read of %d bytes: %v", lendBlock, err)
	}
	if err := sys.Cluster().InjectBitRot(b.Locations[0], b.ID, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := markedRead(cl, b.Locations[0], b); !refusedAsCorrupt(err) {
		t.Fatalf("a marked read of a rotted %d-byte block: %v, want the datanode's refusal", lendBlock, err)
	}
}

// TestSendIsChargedToTheRead: a sent read is one dn.read in the
// datanode's instruments, timed through the send, and a marked read
// the datanode cannot send — it does not hold the block — is answered
// with the error and counted in rpc_errors_total.
func TestSendIsChargedToTheRead(t *testing.T) {
	sys, data, blocks := sendSystem(t, 0)
	b := blocks[0]
	cl := dial(t, sys)
	const (
		reads   = `rpc_requests_total{role="datanode",method="dn.read"}`
		errs    = `rpc_errors_total{role="datanode",method="dn.read"}`
		latency = `rpc_request_seconds{role="datanode",method="dn.read"}`
	)
	timed := func() int64 { return sys.Telemetry().Snapshot().Histograms[latency].Count }
	r0, e0, t0 := counter(sys, reads), counter(sys, errs), timed()
	if got, err := markedRead(cl, b.Locations[0], b); err != nil || !bytes.Equal(got, data[:b.Size]) {
		t.Fatalf("a marked read of a sound replica: %v", err)
	}
	if r, e, n := counter(sys, reads)-r0, counter(sys, errs)-e0, timed()-t0; r != 1 || e != 0 || n != 1 {
		t.Fatalf("a sent read counted %d requests, %d errors, %d timings; want 1, 0, 1", r, e, n)
	}
	stranger := -1
	for m := range sys.Cluster().Machines() {
		if !slices.Contains(b.Locations, m) {
			stranger = m
			break
		}
	}
	if stranger < 0 {
		t.Fatal("every machine holds the block")
	}
	if _, err := markedRead(cl, stranger, b); err == nil {
		t.Fatalf("machine %d answered a marked read of block %d it does not hold", stranger, b.ID)
	}
	if r, e, n := counter(sys, reads)-r0, counter(sys, errs)-e0, timed()-t0; r != 2 || e != 1 || n != 2 {
		t.Fatalf("after a failed send: %d requests, %d errors, %d timings; want 2, 1, 2", r, e, n)
	}
}

// TestDegradedReadDecodesAroundARottedHelper, per codec: with block 0's
// holder dead and the first parity's only replica rotted on disk, a
// degraded read whose plan reads that parity is refused it, marks the
// position erased, and decodes again from the parities left — as the
// BlockFixer does (engine.DecodeAroundRot).
func TestDegradedReadDecodesAroundARottedHelper(t *testing.T) {
	for _, code := range testCodecs(t) {
		t.Run(code.Name(), func(t *testing.T) {
			sys := startTestSystem(t, code)
			data := lendFile(t, sys, code.DataShards()*lendBlock)
			_, blocks, err := sys.Cluster().FileBlocks("f")
			if err != nil {
				t.Fatal(err)
			}
			st, err := sys.Cluster().Stripe(blocks[0].Stripe)
			if err != nil {
				t.Fatal(err)
			}
			parity := st.Positions[code.DataShards()]
			for _, m := range parity.Locations {
				if err := sys.Cluster().InjectBitRot(m, parity.Block, 5); err != nil {
					t.Fatal(err)
				}
			}
			plan, err := code.PlanRepair(0, st.ShardSize, ec.AllAliveExcept(0))
			if err != nil {
				t.Fatal(err)
			}
			var readsRot int64
			for _, r := range plan.Reads {
				if r.Shard == code.DataShards() {
					readsRot = 1
				}
			}
			killHolders(t, sys, 0)
			cl := dial(t, sys)
			got, err := cl.ReadFile("f")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("ReadFile with a dead block and a rotted parity: %v (right bytes: %v)", err, bytes.Equal(got, data))
			}
			if c := cl.Counters(); c.DegradedBlocks != 1 || c.CorruptReplicas != readsRot {
				t.Fatalf("%+v: want one rebuilt block and %d corrupt replicas", c, readsRot)
			}
			// A refused parity was reported and evicted: the next
			// reader's plan does not meet it.
			again := dial(t, sys)
			if got, err := again.ReadFile("f"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("a second ReadFile: %v", err)
			}
			if c := again.Counters(); c.CorruptReplicas != 0 {
				t.Fatalf("a second reader met the reported rot: %+v", c)
			}
		})
	}
}

// TestIsCorruptReplicaErr: a datanode's refusal arrives as a code, the
// reader's own as the hdfs sentinel; both are a corrupt replica, and
// nothing else is.
func TestIsCorruptReplicaErr(t *testing.T) {
	for _, c := range []struct {
		err  error
		want bool
	}{
		{&RemoteError{Code: codeCorruptReplica}, true},
		{hdfs.ErrCorruptReplica, true},
		{&RemoteError{Code: codeOther, Msg: hdfs.ErrCorruptReplica.Error()}, false},
		{errors.New("connection reset"), false},
	} {
		if got := isCorruptReplicaErr(c.err); got != c.want {
			t.Fatalf("isCorruptReplicaErr(%v) = %v", c.err, got)
		}
	}
}
