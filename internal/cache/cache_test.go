package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// recount walks every shard under its lock and verifies the byte
// accounting and list/map agreement — the structural invariant the
// concurrency storm asserts after the dust settles.
func recount(t *testing.T, c *Cache) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		var sum int64
		listed := 0
		for e := s.root.next; e != &s.root; e = e.next {
			sum += int64(len(e.data))
			listed++
			if got, ok := s.items[e.key]; !ok || got != e {
				t.Errorf("shard %d: listed entry %d not in map", i, e.key)
			}
		}
		if listed != len(s.items) {
			t.Errorf("shard %d: list has %d entries, map %d", i, listed, len(s.items))
		}
		if sum != s.bytes {
			t.Errorf("shard %d: recounted %d bytes, accounted %d", i, sum, s.bytes)
		}
		if s.bytes > s.budget {
			t.Errorf("shard %d: %d bytes cached over the %d budget", i, s.bytes, s.budget)
		}
		s.mu.Unlock()
	}
}

func TestGetPutDelete(t *testing.T) {
	c := New(1<<20, 4)
	if _, ok := c.Get(1); ok {
		t.Fatal("hit on an empty cache")
	}
	c.Put(1, []byte("hello"))
	got, ok := c.Get(1)
	if !ok || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Get(1) = %q, %v", got, ok)
	}
	// The copies must isolate cache memory from the caller's edits in
	// both directions.
	got[0] = 'X'
	again, _ := c.Get(1)
	if !bytes.Equal(again, []byte("hello")) {
		t.Fatalf("caller edit leaked into the cache: %q", again)
	}
	src := []byte("world")
	c.Put(2, src)
	src[0] = 'X'
	if v, _ := c.Get(2); !bytes.Equal(v, []byte("world")) {
		t.Fatalf("source edit leaked into the cache: %q", v)
	}
	c.Delete(1)
	if _, ok := c.Get(1); ok {
		t.Fatal("hit after Delete")
	}
	st := c.Stats()
	if st.Hits != 3 || st.Deletes != 1 {
		t.Fatalf("stats = %+v, want 3 hits / 1 delete", st)
	}
	recount(t, c)
}

func TestEvictionIsLRUWithinShard(t *testing.T) {
	// One shard, room for exactly two 4-byte entries: touching A then
	// inserting C must evict B, the least recently used.
	c := New(8, 1)
	c.Put(1, []byte("aaaa"))
	c.Put(2, []byte("bbbb"))
	if _, ok := c.Get(1); !ok {
		t.Fatal("warm entry missing")
	}
	c.Put(3, []byte("cccc"))
	if _, ok := c.Get(2); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	recount(t, c)
}

func TestOversizedPayloadIsNotCached(t *testing.T) {
	c := New(64, 1)
	c.Put(1, make([]byte, 65))
	if _, ok := c.Get(1); ok {
		t.Fatal("payload over the shard budget was cached")
	}
	if got := c.Bytes(); got != 0 {
		t.Fatalf("Bytes() = %d after rejected put", got)
	}
}

func TestOverwriteAdjustsBytes(t *testing.T) {
	c := New(1<<10, 1)
	c.Put(7, make([]byte, 100))
	c.Put(7, make([]byte, 40))
	if got := c.Bytes(); got != 40 {
		t.Fatalf("Bytes() = %d after shrink-overwrite, want 40", got)
	}
	c.Put(7, make([]byte, 200))
	if got := c.Bytes(); got != 200 {
		t.Fatalf("Bytes() = %d after grow-overwrite, want 200", got)
	}
	recount(t, c)
}

func TestPurge(t *testing.T) {
	c := New(1<<20, 4)
	for i := uint64(0); i < 64; i++ {
		c.Put(i, make([]byte, 128))
	}
	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("purged cache holds %d entries / %d bytes", c.Len(), c.Bytes())
	}
	for i := uint64(0); i < 64; i++ {
		if _, ok := c.Get(i); ok {
			t.Fatalf("entry %d survived Purge", i)
		}
	}
	recount(t, c)
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	if c2 := New(0, 4); c2 != nil {
		t.Fatal("New(0) should return the nil disabled cache")
	}
	c.Put(1, []byte("x"))
	if _, ok := c.Get(1); ok {
		t.Fatal("nil cache produced a hit")
	}
	c.Delete(1)
	c.Purge()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

// TestConcurrentStorm hammers every operation from parallel goroutines
// across a deliberately tiny budget (constant eviction pressure), then
// checks the structural invariant: accounted bytes equal recounted
// bytes and never exceed any shard's budget. Run under -race this is
// the cache's concurrency gate.
func TestConcurrentStorm(t *testing.T) {
	c := New(64<<10, 8)
	const (
		workers = 8
		ops     = 4000
		keys    = 512
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 1299709))
			payload := make([]byte, 2048)
			for i := 0; i < ops; i++ {
				key := uint64(rng.Intn(keys))
				switch rng.Intn(10) {
				case 0:
					c.Delete(key)
				case 1, 2, 3:
					c.Put(key, payload[:rng.Intn(len(payload))])
				default:
					if data, ok := c.Get(key); ok && len(data) > len(payload) {
						t.Errorf("entry %d has impossible size %d", key, len(data))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	recount(t, c)
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("storm recorded no lookups")
	}
	if st.Bytes > st.Budget {
		t.Fatalf("cache holds %d bytes over the %d budget", st.Bytes, st.Budget)
	}
}

// TestGetIntoRacingAnOverwriteReturnsOneVersionWhole: GetInto copies the
// payload out after the shard lock is gone, which is only sound because
// an overwriting Put swaps the stored slice and never edits it. Readers
// racing a writer that alternates two versions of one key must each get
// one of them, whole. Run under -race.
func TestGetIntoRacingAnOverwriteReturnsOneVersionWhole(t *testing.T) {
	const size = 64 << 10
	c := New(1<<20, 1)
	versions := [][]byte{bytes.Repeat([]byte{0xaa}, size), bytes.Repeat([]byte{0xbb}, size)}
	c.Put(7, versions[0])
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
				c.Put(7, versions[i%2])
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			dst := make([]byte, size)
			for i := 0; i < 500; i++ {
				got, ok := c.GetInto(7, dst)
				if !ok || len(got) != size {
					t.Errorf("GetInto = %d bytes, %v", len(got), ok)
					return
				}
				if !bytes.Equal(got, versions[0]) && !bytes.Equal(got, versions[1]) {
					t.Error("GetInto returned a mix of two versions")
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	recount(t, c)
}

// TestShardRouting pins that the mixed hash actually spreads dense
// sequential keys: with 1024 keys over 16 shards no shard should be
// empty and none should hold more than a quarter of the keys.
func TestShardRouting(t *testing.T) {
	c := New(16<<20, 16)
	counts := make(map[*shard]int)
	for k := uint64(0); k < 1024; k++ {
		counts[c.shard(k)]++
	}
	if len(counts) != 16 {
		t.Fatalf("1024 sequential keys landed on %d/16 shards", len(counts))
	}
	for s, n := range counts {
		if n > 256 {
			t.Fatalf("one shard holds %d/1024 keys (%p)", n, s)
		}
	}
}

func BenchmarkGetHit(b *testing.B) {
	c := New(16<<20, DefaultShards)
	payload := make([]byte, 8<<10)
	for k := uint64(0); k < 256; k++ {
		c.Put(k, payload)
	}
	b.SetBytes(8 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(uint64(i) % 256); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkPutEvict(b *testing.B) {
	c := New(1<<20, DefaultShards)
	payload := make([]byte, 8<<10)
	b.SetBytes(8 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(uint64(i), payload)
	}
}

func ExampleCache() {
	c := New(1<<20, 4)
	c.Put(42, []byte("hot block"))
	data, ok := c.Get(42)
	fmt.Println(ok, string(data))
	// Output: true hot block
}
