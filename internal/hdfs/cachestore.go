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
	"repro/internal/cache"
	"repro/internal/telemetry"
)

// nodeCacheShards is the datanode cache's shard count: a datanode
// serves a handful of concurrent connections, so modest sharding is
// plenty.
const nodeCacheShards = 8

// cachedBlockStore wraps an inner BlockStore with a byte-budgeted
// read cache. Like every BlockStore it is called under the owning
// dataNode's leaf mutex; the cache's own shard locks make the wrapper
// additionally safe if that ever changes.
type cachedBlockStore struct {
	inner BlockStore
	c     *cache.Cache

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
	s.c.Delete(uint64(id))
	return s.inner.Put(id, data)
}

// Get serves from the cache when it can. A hit is only served after
// the inner store confirms it still holds the block — a replica the
// scrubber evicted or a tombstoned delete must never be resurrected
// from cache memory (the stale-read hazard this wrapper exists to
// rule out).
func (s *cachedBlockStore) Get(id BlockID) ([]byte, error) { return s.GetInto(id, nil) }

// GetInto is Get landing in dst (see intoStore), hit or miss, so a
// cached node's repair reads recycle buffers like any other's.
func (s *cachedBlockStore) GetInto(id BlockID, dst []byte) ([]byte, error) {
	if data, ok := s.c.GetInto(uint64(id), dst); ok {
		if s.inner.Has(id) {
			s.cHits.Inc()
			return data, nil
		}
		s.c.Delete(uint64(id))
	}
	s.cMisses.Inc()
	data, err := getInto(s.inner, id, dst)
	if err != nil {
		return nil, err
	}
	s.c.Put(uint64(id), data)
	return data, nil
}

// Delete evicts the cached copy before the tombstone lands, covering
// both explicit deletes and the scrubber's corrupt-replica eviction
// (which deletes through the same path).
func (s *cachedBlockStore) Delete(id BlockID) error {
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
	s.c.Delete(uint64(id))
	return s.inner.Corrupt(id, offset)
}

// Close purges the cache with the store: a crashed machine's cache
// dies with it, and recovery (the reopen factory) builds a fresh,
// cold wrapper over the rescanned store.
func (s *cachedBlockStore) Close() error {
	s.c.Purge()
	return s.inner.Close()
}
