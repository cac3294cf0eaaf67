// Package cache is a sharded approximate-LRU byte cache — the hot-data
// tier under the serving layer's read path. The design follows the
// classic sharded LRU shape (bpowers/approx-lru): the key space is
// split across N independently locked shards by a mixed key hash, each
// shard keeps a map plus an intrusive doubly-linked recency list, and
// eviction is byte-budgeted per shard (total budget / shards). LRU is
// therefore exact within a shard and approximate across the cache —
// a globally-stale entry on a lightly loaded shard can outlive a
// warmer entry on a full one — which is the standard trade for not
// serialising every Get on one mutex.
//
// Payload ownership: Put copies the value in and Get copies it out.
// Both copies are deliberate — a payload handed to Put may be a view
// of a result its caller goes on to overwrite (Client.ReadFile caches
// out of the slice it returns), a Get lands in a buffer its caller
// recycles, and a cache that shared memory with either would be
// silently poisoned by the next write. A stored payload is never edited
// in place: an overwriting Put swaps in a fresh copy, which is what lets
// Get copy out after the shard lock is released.
//
// A nil *Cache is valid and caches nothing: Get always misses, Put is
// a no-op. Callers thread an optional cache without nil checks, the
// same convention the telemetry instruments use.
package cache

import "sync"

// DefaultShards is the shard count when New is given n <= 0. Sixteen
// shards keep mutex contention negligible at the client's concurrency
// (a handful of workers) without fragmenting small byte budgets.
const DefaultShards = 16

// entry is one cached block: an intrusive node of its shard's recency
// list. prev/next are never nil for a linked entry (the list is
// circular through the shard's root sentinel).
type entry struct {
	key        uint64
	data       []byte
	prev, next *entry
}

// shard is one lock's worth of the cache. All mutation of a shard —
// and every acquisition of its mutex — happens inside shard methods;
// the enclosing Cache only routes keys. The repolint lockdiscipline
// analyzer enforces this confinement.
type shard struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	items  map[uint64]*entry
	root   entry // sentinel: root.next = MRU ... root.prev = LRU

	hits, misses, evictions, puts, deletes int64
}

func (s *shard) init(budget int64) {
	s.budget = budget
	s.items = make(map[uint64]*entry)
	s.root.next = &s.root
	s.root.prev = &s.root
}

// attach links e at the MRU end. Callers hold s.mu.
func (s *shard) attach(e *entry) {
	e.prev = &s.root
	e.next = s.root.next
	s.root.next.prev = e
	s.root.next = e
}

// detach unlinks e. Callers hold s.mu.
func (s *shard) detach(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// lookup returns the entry's stored payload, refreshing the entry's
// recency. The slice is the cache's own and is never written again (put
// replaces e.data, it does not edit it), so the caller may read it
// without the lock — and must not write it.
func (s *shard) lookup(key uint64) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.detach(e)
	s.attach(e)
	s.hits++
	return e.data, true
}

// getInto returns a copy of the entry's payload — in dst when its
// capacity holds it. The copy runs after the shard lock is released: a
// block-sized memmove under it would stall every other key of the shard.
func (s *shard) getInto(key uint64, dst []byte) ([]byte, bool) {
	data, ok := s.lookup(key)
	if !ok {
		return nil, false
	}
	return append(dst[:0], data...), true
}

// put stores a copy of data, evicting from the LRU tail until the
// shard is back under budget. A payload larger than the whole shard
// budget is not cached (it would evict everything and then miss).
func (s *shard) put(key uint64, data []byte) {
	size := int64(len(data))
	if size > s.budget {
		return
	}
	owned := make([]byte, len(data))
	copy(owned, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if e, ok := s.items[key]; ok {
		s.bytes += size - int64(len(e.data))
		e.data = owned
		s.detach(e)
		s.attach(e)
	} else {
		e := &entry{key: key, data: owned}
		s.items[key] = e
		s.attach(e)
		s.bytes += size
	}
	for s.bytes > s.budget {
		lru := s.root.prev
		s.detach(lru)
		delete(s.items, lru.key)
		s.bytes -= int64(len(lru.data))
		s.evictions++
	}
}

// remove drops the entry if present.
func (s *shard) remove(key uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[key]
	if !ok {
		return
	}
	s.detach(e)
	delete(s.items, key)
	s.bytes -= int64(len(e.data))
	s.deletes++
}

// purge drops every entry, keeping the cumulative counters.
func (s *shard) purge() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items = make(map[uint64]*entry)
	s.root.next = &s.root
	s.root.prev = &s.root
	s.bytes = 0
}

// snapshot folds the shard's counters and occupancy into st.
func (s *shard) snapshot(st *Stats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Hits += s.hits
	st.Misses += s.misses
	st.Evictions += s.evictions
	st.Puts += s.puts
	st.Deletes += s.deletes
	st.Items += len(s.items)
	st.Bytes += s.bytes
	st.Budget += s.budget
}

// Cache is the sharded cache. All methods are safe for concurrent use
// and safe on a nil receiver (a nil cache caches nothing).
type Cache struct {
	shards []shard
	mask   uint64
}

// New builds a cache holding at most totalBytes across the given
// number of shards (<= 0 selects DefaultShards; counts round up to a
// power of two for mask routing). totalBytes <= 0 returns nil — the
// valid "caching disabled" cache.
func New(totalBytes int64, shardCount int) *Cache {
	if totalBytes <= 0 {
		return nil
	}
	if shardCount <= 0 {
		shardCount = DefaultShards
	}
	n := 1
	for n < shardCount {
		n <<= 1
	}
	// Every shard gets an equal slice of the budget; at least one byte
	// so a tiny budget still admits tiny entries rather than none.
	per := totalBytes / int64(n)
	if per < 1 {
		per = 1
	}
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].init(per)
	}
	return c
}

// mix is the splitmix64 finalizer: block ids are dense small integers,
// and unmixed they would land consecutive keys on consecutive shards —
// fine — but any strided access pattern would then hammer one shard.
func mix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

func (c *Cache) shard(key uint64) *shard { return &c.shards[mix(key)&c.mask] }

// Get returns a copy of the cached payload for key, refreshing its
// recency. ok is false on a miss (and always on a nil cache).
func (c *Cache) Get(key uint64) ([]byte, bool) { return c.GetInto(key, nil) }

// GetInto is Get copying into dst when its capacity holds the payload
// (the result is then dst[:n]), for callers that recycle read buffers.
func (c *Cache) GetInto(key uint64, dst []byte) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	return c.shard(key).getInto(key, dst)
}

// Put caches a copy of data under key, evicting least-recently-used
// entries of the key's shard as needed to stay within budget.
func (c *Cache) Put(key uint64, data []byte) {
	if c == nil {
		return
	}
	c.shard(key).put(key, data)
}

// Delete drops key if cached — the invalidation hook for deletes,
// corruption injection, and eviction by the scrubber.
func (c *Cache) Delete(key uint64) {
	if c == nil {
		return
	}
	c.shard(key).remove(key)
}

// Purge drops every entry (crash/close invalidation); cumulative
// counters survive.
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	for i := range c.shards {
		c.shards[i].purge()
	}
}

// Stats is a point-in-time cache summary, summed across shards.
type Stats struct {
	Hits, Misses  int64
	Evictions     int64
	Puts, Deletes int64
	Items         int
	Bytes, Budget int64
}

// Stats sums the per-shard counters and occupancy. The zero Stats is
// returned on a nil cache.
func (c *Cache) Stats() Stats {
	var st Stats
	if c == nil {
		return st
	}
	for i := range c.shards {
		c.shards[i].snapshot(&st)
	}
	return st
}

// Bytes returns the cached payload bytes across shards.
func (c *Cache) Bytes() int64 { return c.Stats().Bytes }

// Len returns the cached entry count across shards.
func (c *Cache) Len() int { return c.Stats().Items }
