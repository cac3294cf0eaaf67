package serve

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// Slot-ownership tests: ReadFile allocates its result once and every
// block is read straight into its slot of it. Whatever goes wrong with
// one block's read must stay inside that slot, be overwritten by what
// serves the block next, and never reach the result once it is the
// caller's. Run under -race.

// poisoned reports whether every byte of p is still the poison value the
// test filled it with.
func poisoned(p []byte, poison byte) bool {
	return bytes.Equal(p, bytes.Repeat([]byte{poison}, len(p)))
}

// dyingReplies is a datanode that answers every dn.read with a frame
// declaring the whole range, sends the first half of it (0x55 bytes) and
// hangs up. served counts the reads it answered that way.
func dyingReplies(t *testing.T, served *atomic.Int64) string {
	return fakeDataNode(t, func(c net.Conn, req *request) error {
		var frame bytes.Buffer
		payload := bytes.Repeat([]byte{0x55}, int(req.Length))
		if err := writeFrame(&frame, okResponse(), payload); err != nil {
			return err
		}
		served.Add(1)
		c.Write(frame.Bytes()[:frame.Len()-len(payload)/2])
		return io.ErrUnexpectedEOF
	})
}

// TestSlotHalfWrittenByADyingReplicaIsOverwrittenByTheNext: the replica
// the client prefers dies halfway through every payload. The read of it
// fails with half the slot written; the next replica reads into the same
// slot and overwrites all of it.
func TestSlotHalfWrittenByADyingReplicaIsOverwrittenByTheNext(t *testing.T) {
	code := testCodecs(t)[0]
	sys := startTestSystem(t, code)
	cl, err := Dial(sys.NameAddr(), code)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	data := make([]byte, 2*lendBlock+999)
	rand.New(rand.NewSource(11)).Read(data)
	if err := cl.WriteFile("f", data); err != nil { // replicated three ways, not raided
		t.Fatal(err)
	}
	_, blocks, err := cl.fileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	b := blocks[1]
	if len(b.Locations) < 2 {
		t.Fatalf("block has %d replicas, want another to fall back on", len(b.Locations))
	}
	// Make the dying replica the one every read tries first: it alone
	// looks fast, and its failures are not allowed to trigger the address
	// refresh that would put the real daemon back.
	var served atomic.Int64
	dying := b.Locations[0]
	cl.mu.Lock()
	cl.addrs[dying] = dyingReplies(t, &served)
	cl.refreshedAt = map[int]time.Time{dying: time.Now().Add(time.Hour)}
	cl.mu.Unlock()
	for m := 0; m < sys.Cluster().Machines(); m++ {
		if m != dying {
			cl.lat.observe(m, time.Second)
		}
	}

	// The mechanism, on a slot of the test's own.
	const poison = 0xee
	slot := bytes.Repeat([]byte{poison}, int(b.Size))
	if _, err := cl.dnRead(dying, b.ID, 0, b.Size, nil, slot); err == nil {
		t.Fatal("a payload cut off halfway was accepted")
	}
	half := len(slot) / 2
	if !bytes.Equal(slot[:half], bytes.Repeat([]byte{0x55}, half)) || !poisoned(slot[len(slot)-half:], poison) {
		t.Fatal("the dying replica did not leave the slot half written: the test exercises nothing")
	}

	before := served.Load()
	got, err := cl.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if served.Load() == before {
		t.Fatal("the read never tried the dying replica")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("a block's slot kept bytes of the replica that died mid-payload")
	}
	if c := cl.Counters(); c.DegradedBlocks != 0 || c.BlocksRead != int64(len(blocks)) {
		t.Fatalf("counters %+v: want every block served by a replica", c)
	}
}

// TestWrongLengthReplyStaysInsideItsSlot: a reply shorter than the block
// writes only inside the slot, a longer one not even there, and either
// way the read fails and the slots on both sides keep their bytes. In a
// whole-file read the lied-about block is reconstructed and its
// neighbours come back byte-identical.
func TestWrongLengthReplyStaysInsideItsSlot(t *testing.T) {
	code := testCodecs(t)[1]
	sys := startTestSystem(t, code)
	data := lendFile(t, sys, code.DataShards()*lendBlock)
	_, blocks, err := sys.Cluster().FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	for name, by := range map[string]int64{"one byte short": -1, "one byte long": 1, "twice as long": lendBlock} {
		t.Run(name, func(t *testing.T) {
			cl, err := Dial(sys.NameAddr(), code)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			liar := blocks[1].Locations[0]
			cl.mu.Lock()
			cl.addrs[liar] = wrongLengthReplies(t, by)
			cl.mu.Unlock()

			const poison = 0xee
			result := bytes.Repeat([]byte{poison}, 3*lendBlock)
			slot := result[lendBlock : 2*lendBlock : 2*lendBlock]
			if _, err := cl.dnRead(liar, int64(blocks[1].ID), 0, lendBlock, nil, slot); err == nil {
				t.Fatal("a reply of the wrong length was accepted")
			}
			if !poisoned(result[:lendBlock], poison) || !poisoned(result[2*lendBlock:], poison) {
				t.Fatal("a reply of the wrong length was written outside its slot")
			}
			if by > 0 && !poisoned(slot, poison) {
				t.Fatal("a reply longer than the slot was written into it")
			}

			got, err := cl.ReadFile("f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read around the lying replica is not byte-identical")
			}
			if c := cl.Counters(); c.DegradedBlocks != 1 || c.DegradedBytesFetched != lendBlock {
				t.Fatalf("counters %+v: want the lying replica's block reconstructed for one shard", c)
			}
		})
	}
}

// TestEveryBlockLandsInItsSlot: files of one block, one stripe, a short
// last block and several stripes read back byte-identical and exactly as
// long as written — replicated, raided, with a block lost, and out of the
// client cache.
func TestEveryBlockLandsInItsSlot(t *testing.T) {
	code := testCodecs(t)[1]
	k := code.DataShards()
	for name, size := range map[string]int{
		"one short block":  1001,
		"one stripe":       k * lendBlock,
		"short last block": (k-1)*lendBlock + 1001,
		"multi-stripe":     (2*k+1)*lendBlock + 7,
	} {
		t.Run(name, func(t *testing.T) {
			sys := startTestSystem(t, code)
			cl, err := Dial(sys.NameAddr(), code, WithBlockCache(1<<20))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			data := make([]byte, size)
			rand.New(rand.NewSource(int64(size))).Read(data)
			if err := cl.WriteFile("f", data); err != nil {
				t.Fatal(err)
			}
			read := func(what string, opts ...ClientOption) {
				t.Helper()
				fresh, err := Dial(sys.NameAddr(), code, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer fresh.Close()
				if got, err := fresh.ReadFile("f"); err != nil || !bytes.Equal(got, data) {
					t.Fatalf("%s read: %d bytes of %d, err %v", what, len(got), len(data), err)
				}
			}
			read("replicated")
			if err := cl.RaidFile("f"); err != nil {
				t.Fatal(err)
			}
			read("raided")
			read("hedged", WithHedgedReads(time.Second))
			if got, err := cl.ReadFile("f"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("cache-filling read: %v", err)
			}
			killHolders(t, sys, (len(data)-1)/lendBlock) // the last block
			read("degraded")
			read("degraded partial-sum", WithPartialSumRepair())
			before := cl.Counters()
			if got, err := cl.ReadFile("f"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("cached read: %v", err)
			}
			if c := cl.Counters(); c.CacheMisses != before.CacheMisses || c.DegradedBlocks != 0 {
				t.Fatalf("counters %+v: want every block out of the cache", c)
			}
		})
	}
}

// TestCacheHitLandsInTheSlotAndTheCacheKeepsItsOwnBytes: a cached block
// is copied into the result, never shared with it, in both directions —
// scribbling over a result (one that filled the cache, then one served
// from it) leaves the next cached read intact.
func TestCacheHitLandsInTheSlotAndTheCacheKeepsItsOwnBytes(t *testing.T) {
	code := testCodecs(t)[0]
	sys := startTestSystem(t, code)
	data := lendFile(t, sys, 2*lendBlock+9)
	cl, err := Dial(sys.NameAddr(), code, WithBlockCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for read := 0; read < 3; read++ {
		got, err := cl.ReadFile("f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %d: the caller's writes to an earlier result reached the cache", read)
		}
		for i := range got {
			got[i] = 0xff
		}
	}
	if c := cl.Counters(); c.CacheMisses != 3 || c.CacheHits != 6 {
		t.Fatalf("counters %+v: want one cold read of 3 blocks and two served from the cache", c)
	}
}

// TestLentSetIsViewsForTheReadAndCopiesForAHedge pins the ownership rule
// at its one seam: a reconstruction ReadFile waits for is lent the held
// slots themselves, a hedge arm is lent copies of them.
func TestLentSetIsViewsForTheReadAndCopiesForAHedge(t *testing.T) {
	code := testCodecs(t)[0]
	cl := &Client{code: code}
	result := make([]byte, 3*lendBlock)
	rand.New(rand.NewSource(5)).Read(result)
	blocks := []wireBlock{
		{ID: 1, Size: lendBlock, Stripe: 4, StripePos: 0, held: result[:lendBlock:lendBlock]},
		{ID: 2, Size: lendBlock, Stripe: 4, StripePos: 1}, // the lost one
		{ID: 3, Size: lendBlock, Stripe: 4, StripePos: 2, held: result[2*lendBlock:]},
		{ID: 4, Size: lendBlock, Stripe: 5, StripePos: 3, held: result[:lendBlock]}, // another stripe
	}
	for _, detached := range []bool{false, true} {
		lent := cl.lentTo(blocks[1], blocks, detached)
		if len(lent) != code.TotalShards() || lent[1] != nil || lent[3] != nil {
			t.Fatalf("detached=%v: lent the lost block or another stripe's", detached)
		}
		for _, pos := range []int{0, 2} {
			if !bytes.Equal(lent[pos], blocks[pos].held) {
				t.Fatalf("detached=%v: position %d lent the wrong bytes", detached, pos)
			}
			if view := &lent[pos][0] == &blocks[pos].held[0]; view == detached {
				t.Fatalf("detached=%v: position %d lent as a view=%v", detached, pos, view)
			}
		}
	}
}

// TestHedgeWinLeavesTheResultToTheCaller: the last block's holder is
// slow, the hedge arm reconstructs the block and wins, and ReadFile
// returns while the primary is still parked in the throttle. The caller
// overwrites the result; the primary then finishes its read — into a
// buffer of its own, so the result stays exactly as the caller left it.
func TestHedgeWinLeavesTheResultToTheCaller(t *testing.T) {
	code := testCodecs(t)[1]
	k := code.DataShards()
	sys := startTestSystem(t, code)
	data := lendFile(t, sys, k*lendBlock)
	_, blocks, err := sys.Cluster().FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	const throttle = 300 * time.Millisecond
	slow := blocks[k-1].Locations[0]
	if err := sys.ThrottleDataNode(slow, throttle); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(sys.NameAddr(), code, WithHedgedReads(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got, err := cl.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("hedged read is not byte-identical")
	}
	if c := cl.Counters(); c.HedgeWins != 1 || c.DegradedBlocks != 1 {
		t.Fatalf("counters %+v: want the hedge to have won the last block", c)
	}
	if cl.lat.estimate(slow) != 0 {
		t.Fatal("the primary had already finished when ReadFile returned: the test exercises nothing")
	}
	const scribble = 0xff
	for i := range got {
		got[i] = scribble
	}
	// The primary's RPC completing is what first gives the slow machine a
	// latency sample.
	waitFor(t, 10*time.Second, "the parked primary to finish its read", func() bool {
		return cl.lat.estimate(slow) != 0
	})
	if !poisoned(got, scribble) {
		t.Fatal("the result was written after ReadFile returned it")
	}
}
