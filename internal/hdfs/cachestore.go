// The datanode-side read cache: an optional sharded LRU in front of
// any BlockStore, so extent-backed nodes answer hot-block reads from
// memory instead of a disk pread + CRC pass. The cache is a pure
// accelerator, never an authority — every hit is double-checked
// against the inner store's liveness, and every path that changes or
// invalidates stored bytes (overwrite, delete, scrubber eviction,
// corruption injection, crash) evicts the cached copy first, so a
// cached block can never outlive or contradict its replica.
package hdfs

import (
	"sync"

	"repro/internal/cache"
	"repro/internal/telemetry"
)

// nodeCacheShards is the datanode cache's shard count: a datanode
// serves a handful of concurrent connections, so modest sharding is
// plenty.
const nodeCacheShards = 8

// cachedBlockStore wraps an inner BlockStore with a byte-budgeted
// read cache. Reads reach it outside the owning dataNode's leaf mutex
// and share mu; every call that changes stored bytes holds it
// exclusively, so a read that missed cannot fill the cache with bytes a
// concurrent overwrite or corruption has just invalidated.
type cachedBlockStore struct {
	inner BlockStore
	c     *cache.Cache
	mu    sync.RWMutex

	cHits, cMisses *telemetry.Counter
}

// newCachedBlockStore wraps inner with a cache of the given byte
// budget. reg may be nil (uninstrumented counters are no-ops).
func newCachedBlockStore(inner BlockStore, budget int64, reg *telemetry.Registry) *cachedBlockStore {
	return &cachedBlockStore{
		inner:   inner,
		c:       cache.New(budget, nodeCacheShards),
		cHits:   reg.Counter("hdfs_node_cache_hits_total"),
		cMisses: reg.Counter("hdfs_node_cache_misses_total"),
	}
}

// Put writes through and invalidates: the cache refills on the next
// read, which keeps it holding only blocks something actually reads.
func (s *cachedBlockStore) Put(id BlockID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c.Delete(uint64(id))
	return s.inner.Put(id, data)
}

// Get serves from the cache when it can. A hit is only served after
// the inner store confirms it still holds the block — a replica the
// scrubber evicted or a tombstoned delete must never be resurrected
// from cache memory (the stale-read hazard this wrapper exists to
// rule out).
func (s *cachedBlockStore) Get(id BlockID) ([]byte, error) { return s.GetInto(id, 0, wholeBlock, nil) }

// GetInto is Get landing in dst (see intoStore), hit or miss, so a
// cached node's repair reads recycle buffers like any other's. The
// cache holds and serves whole blocks: a range read copies out or
// fills the whole block — dst should have room for it — and returns
// the range's view of it.
func (s *cachedBlockStore) GetInto(id BlockID, offset, length int64, dst []byte) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if data, ok := s.c.GetInto(uint64(id), dst); ok {
		if s.inner.Has(id) {
			s.cHits.Inc()
			return clipRange(data, offset, length), nil
		}
		s.c.Delete(uint64(id))
	}
	s.cMisses.Inc()
	data, err := getInto(s.inner, id, 0, wholeBlock, dst)
	if err != nil {
		return nil, err
	}
	s.c.Put(uint64(id), data)
	return clipRange(data, offset, length), nil
}

// Delete evicts the cached copy before the tombstone lands, covering
// both explicit deletes and the scrubber's corrupt-replica eviction
// (which deletes through the same path).
func (s *cachedBlockStore) Delete(id BlockID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c.Delete(uint64(id))
	return s.inner.Delete(id)
}

func (s *cachedBlockStore) Has(id BlockID) bool { return s.inner.Has(id) }

func (s *cachedBlockStore) IDs() []BlockID { return s.inner.IDs() }

func (s *cachedBlockStore) StoredBytes() int64 { return s.inner.StoredBytes() }

// Corrupt evicts before flipping the stored byte: the injected rot
// must be observable on the next read, not masked by a clean cached
// copy — otherwise the scrubber's whole detection path is untestable
// on a cached node.
func (s *cachedBlockStore) Corrupt(id BlockID, offset int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c.Delete(uint64(id))
	return s.inner.Corrupt(id, offset)
}

// Close purges the cache with the store: a crashed machine's cache
// dies with it, and recovery (the reopen factory) builds a fresh,
// cold wrapper over the rescanned store.
func (s *cachedBlockStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c.Purge()
	return s.inner.Close()
}
