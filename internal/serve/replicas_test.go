package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/testutil/leakcheck"
)

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
	// one-block files, a one-shard budget of 32 blocks (at most 32
	// resident), Zipf-popular reads. The hot head must stay resident —
	// at least half of all lookups hit.
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
