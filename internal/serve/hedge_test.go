package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/hdfs"
	"repro/internal/testutil/leakcheck"
)

// TestHedgedReadOnThrottledDataNode pins the hedge engine's core
// claim, per codec: a datanode that is slow but alive costs one hedge
// delay, not an RPC timeout. The single replica of a raided block
// lands on a machine throttled far past the hedge delay; every read
// still returns byte-identical data, HedgedReads/HedgeWins move, and
// the throttled machine is never marked dead.
func TestHedgedReadOnThrottledDataNode(t *testing.T) {
	for _, code := range testCodecs(t) {
		t.Run(code.Name(), func(t *testing.T) {
			sys := startTestSystem(t, code)
			cl, err := Dial(sys.NameAddr(), code, WithHedgedReads(20*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			rng := rand.New(rand.NewSource(2))
			data := make([]byte, 3*4096+77)
			rng.Read(data)
			if err := cl.WriteFile("f", data); err != nil {
				t.Fatal(err)
			}
			if err := cl.RaidFile("f"); err != nil {
				t.Fatal(err)
			}
			_, blocks, err := cl.fileBlocks("f")
			if err != nil {
				t.Fatal(err)
			}
			if len(blocks[0].Locations) != 1 {
				t.Fatalf("raided block has %d replicas, want 1", len(blocks[0].Locations))
			}
			victim := blocks[0].Locations[0]
			const throttle = 250 * time.Millisecond
			if err := sys.ThrottleDataNode(victim, throttle); err != nil {
				t.Fatal(err)
			}

			start := time.Now()
			got, err := cl.ReadFile("f")
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("hedged read returned mismatched bytes")
			}
			// The tail cut itself: the read pays the 20ms hedge delay
			// plus one reconstruction and never waits out the holder.
			// The bound is the throttle itself, not a wall-clock budget
			// (this suite runs under -race on loaded hosts): a read that
			// awaited the primary cannot finish inside it.
			if elapsed >= throttle {
				t.Fatalf("hedged read took %v against a %v throttle: the hedge did not cut the wait", elapsed, throttle)
			}
			c := cl.Counters()
			if c.HedgedReads == 0 {
				t.Fatalf("throttled holder never triggered a hedge: %+v", c)
			}
			if c.HedgeWins == 0 {
				t.Fatalf("reconstruction never beat the throttled primary: %+v", c)
			}
			if c.DegradedBlocks == 0 {
				t.Fatalf("hedge wins were not counted as degraded serves: %+v", c)
			}
			if !sys.Cluster().MachineAlive(victim) {
				t.Fatalf("slow machine %d was marked dead", victim)
			}

			// Clearing the throttle restores the fast path: the same
			// bytes come straight off the replica again.
			if err := sys.ThrottleDataNode(victim, 0); err != nil {
				t.Fatal(err)
			}
			got, err = cl.ReadFile("f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("post-throttle read returned mismatched bytes")
			}
		})
	}
}

// TestHedgedReadReconstructsOncePerAttempt is the regression for the
// double reconstruction: when the armed hedge arm fails and the primary
// then fails too, hedgedRead must hand the hedge arm's error back to
// readBlock's retry loop, not run a second reconstruction against the
// same metadata. The block's only replica is rotted on disk AND its
// holder throttled past the hedge delay, so in every attempt the hedge
// arms first, fails fast (two more holders of the stripe are dead:
// three erasures on a code that tolerates two), and the primary's
// checksum refusal arrives afterwards. One stripe plan per attempt.
func TestHedgedReadReconstructsOncePerAttempt(t *testing.T) {
	code := testCodecs(t)[0] // rs(4,2)
	sys := startTestSystem(t, code, WithDataDir(t.TempDir()), WithTelemetry(TelemetryConfig{}))
	cl, err := Dial(sys.NameAddr(), code, WithHedgedReads(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	data := make([]byte, 4*4096) // one full stripe for k=4
	rand.New(rand.NewSource(6)).Read(data)
	if err := cl.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := cl.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	_, blocks, err := cl.fileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	victim := blocks[0].Locations[0]
	if err := sys.Cluster().InjectBitRot(victim, hdfs.BlockID(blocks[0].ID), 5); err != nil {
		t.Fatal(err)
	}
	if err := sys.ThrottleDataNode(victim, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks[1:3] {
		if err := sys.KillDataNode(b.Locations[0]); err != nil {
			t.Fatal(err)
		}
	}

	plans := func() int64 { return sys.Telemetry().Snapshot().Counters["serve_degraded_plans_total"] }
	before := plans()
	if _, err := cl.ReadFile("f"); err == nil {
		t.Fatal("read of an unrecoverable block succeeded")
	}
	if got := plans() - before; got != readAttempts {
		t.Fatalf("%d stripe plans for %d read attempts, want one reconstruction per attempt", got, readAttempts)
	}
	if c := cl.Counters(); c.HedgedReads != readAttempts {
		t.Fatalf("hedge armed %d times in %d attempts: the attempts did not take the hedged path", c.HedgedReads, readAttempts)
	}
}

// TestClientBlockCacheServesRepeatReads: with WithBlockCache, a reread
// is served from client memory — cache hits cover every block and no
// extra replica RPCs are issued, even when a holder has meanwhile been
// killed.
func TestClientBlockCacheServesRepeatReads(t *testing.T) {
	codes := testCodecs(t)
	sys := startTestSystem(t, codes[0])
	cl, err := Dial(sys.NameAddr(), codes[0], WithBlockCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 2*4096+9)
	rng.Read(data)
	if err := cl.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := cl.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("first read mismatched")
	}
	c := cl.Counters()
	if c.CacheHits != 0 || c.CacheMisses != 3 {
		t.Fatalf("cold read counters %+v, want 0 hits / 3 misses", c)
	}

	// Kill the first block's only holder: the reread must not notice —
	// every block answers from the cache without a single datanode RPC.
	_, blocks, err := cl.fileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.KillDataNode(blocks[0].Locations[0]); err != nil {
		t.Fatal(err)
	}
	got, err = cl.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("cached reread mismatched")
	}
	c = cl.Counters()
	if c.CacheHits != 3 || c.CacheMisses != 3 {
		t.Fatalf("warm read counters %+v, want 3 hits / 3 misses", c)
	}
	if c.DegradedBlocks != 0 {
		t.Fatalf("cached reread took the degraded path: %+v", c)
	}

	// A skewed reread against a cache smaller than the working set: 48
	// one-block files, a budget of two blocks per cache shard (at most
	// 32 resident), Zipf-popular reads. The hot head must stay resident
	// — at least half of all lookups hit.
	small, err := Dial(sys.NameAddr(), codes[0], WithBlockCache(32*4096))
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	files := make([][]byte, 48)
	for i := range files {
		files[i] = make([]byte, 4096)
		rng.Read(files[i])
		if err := small.WriteFile(fmt.Sprintf("skew-%d", i), files[i]); err != nil {
			t.Fatal(err)
		}
	}
	zipf := rand.NewZipf(rng, 1.4, 1, uint64(len(files)-1))
	for i := 0; i < 400; i++ {
		f := zipf.Uint64()
		got, err := small.ReadFile(fmt.Sprintf("skew-%d", f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, files[f]) {
			t.Fatalf("skew-%d: cached read mismatched", f)
		}
	}
	c = small.Counters()
	if ratio := float64(c.CacheHits) / float64(c.CacheHits+c.CacheMisses); ratio < 0.5 {
		t.Fatalf("skewed reread hit ratio %.2f (%d hits, %d misses), want >= 0.5", ratio, c.CacheHits, c.CacheMisses)
	}
}

// TestLatencyAwareOrderingAvoidsSlowReplica: with replicated blocks
// and one throttled holder, the EWMA steers reads to the fast replicas
// once the slow one has been sampled — later reads stop paying the
// throttle.
func TestLatencyAwareOrderingAvoidsSlowReplica(t *testing.T) {
	leakcheck.Cleanup(t)
	codes := testCodecs(t)
	sys := startTestSystem(t, codes[0])
	cl, err := Dial(sys.NameAddr(), codes[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	data := make([]byte, 4096)
	rand.New(rand.NewSource(4)).Read(data)
	if err := cl.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	_, blocks, err := cl.fileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	victim := blocks[0].Locations[0]
	if err := sys.ThrottleDataNode(victim, 40*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Sample every replica (including the slow one), then time the
	// steady state: ordering must keep the throttled holder out of the
	// fast tier, so reads answer in microseconds, not 40ms.
	for i := 0; i < 6; i++ {
		if _, err := cl.ReadFile("f"); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := cl.ReadFile("f"); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*40*time.Millisecond/2 {
		t.Fatalf("steady-state reads took %v: ordering still visits the throttled replica", elapsed)
	}
}
