package hdfs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/extent"
	"repro/internal/telemetry"
)

// counterValue reads a registry counter by name, tolerating its absence.
func counterValue(reg *telemetry.Registry, name string) int64 {
	return reg.Snapshot().Counters[name]
}

func TestCachedStoreServesHitsAfterFirstRead(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := newCachedBlockStore(newMemStore(), 1<<20, reg)
	payload := bytes.Repeat([]byte{0xAB}, 512)
	if err := st.Put(7, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}

	for i := 0; i < 3; i++ {
		got, err := st.Get(7)
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("Get %d: payload mismatch", i)
		}
	}
	if hits := counterValue(reg, "hdfs_node_cache_hits_total"); hits != 2 {
		t.Fatalf("hits = %d, want 2 (first read fills, next two hit)", hits)
	}
	if misses := counterValue(reg, "hdfs_node_cache_misses_total"); misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
}

func TestCachedStoreDeleteAndOverwriteInvalidate(t *testing.T) {
	st := newCachedBlockStore(newMemStore(), 1<<20, nil)
	if err := st.Put(1, []byte("v1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := st.Get(1); err != nil { // fill
		t.Fatalf("Get: %v", err)
	}

	// Overwrite must not leave the old payload servable.
	if err := st.Put(1, []byte("v2")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	got, err := st.Get(1)
	if err != nil || string(got) != "v2" {
		t.Fatalf("Get after overwrite = %q, %v; want v2", got, err)
	}

	// Delete — the scrubber's eviction path — must tombstone the cache
	// too: a deleted replica never resurrects from cache memory.
	if err := st.Delete(1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := st.Get(1); !errors.Is(err, ErrNotStored) {
		t.Fatalf("Get after delete: err = %v, want ErrNotStored", err)
	}
}

// TestCachedStoreCorruptionNotMasked pins the wrapper's most important
// honesty property on a verifying (extent-backed) store: injected rot
// surfaces as ErrCorruptReplica on the very next read even when a
// clean copy sits in cache.
func TestCachedStoreCorruptionNotMasked(t *testing.T) {
	factory := ExtentStoreFactory(t.TempDir(), extent.Options{})
	inner, err := factory(0)
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	st := newCachedBlockStore(inner, 1<<20, nil)
	defer st.Close()

	payload := bytes.Repeat([]byte{0x5C}, 256)
	if err := st.Put(42, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := st.Get(42); err != nil { // fill the cache
		t.Fatalf("Get: %v", err)
	}
	if err := st.Corrupt(42, 10); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	if _, err := st.Get(42); !errors.Is(err, ErrCorruptReplica) {
		t.Fatalf("Get after Corrupt: err = %v, want ErrCorruptReplica (cached copy masked the rot)", err)
	}
}

// TestCachedStoreHitDoubleChecksLiveness drops a block out of the
// inner store behind the wrapper's back; the stale cached copy must
// not be served.
func TestCachedStoreHitDoubleChecksLiveness(t *testing.T) {
	inner := newMemStore()
	st := newCachedBlockStore(inner, 1<<20, nil)
	if err := st.Put(9, []byte("live")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := st.Get(9); err != nil { // fill the cache
		t.Fatalf("Get: %v", err)
	}
	if err := inner.Delete(9); err != nil { // bypass the wrapper
		t.Fatalf("inner.Delete: %v", err)
	}
	if _, err := st.Get(9); !errors.Is(err, ErrNotStored) {
		t.Fatalf("Get after out-of-band delete: err = %v, want ErrNotStored", err)
	}
}

// TestNodeCacheColdAfterCrashRecovery runs the wrapper through the
// cluster: a crashed machine's cache dies with its store, and the
// recovered node rebuilds from disk without serving stale bytes.
func TestNodeCacheColdAfterCrashRecovery(t *testing.T) {
	reg := telemetry.NewRegistry()
	md, err := New(Config{
		Topology:       cluster.Topology{Racks: 20, MachinesPerRack: 3},
		Code:           rsCode(t),
		BlockSize:      1 << 10,
		Replication:    1, // single replica keeps every read on one node
		Seed:           1,
		StoreFactory:   ExtentStoreFactory(t.TempDir(), extent.Options{}),
		NodeCacheBytes: 1 << 20,
		Telemetry:      reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer md.Close()

	payload := bytes.Repeat([]byte{0x77}, 300)
	if err := md.WriteFile("/f", payload); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	locs, err := md.BlockLocations("/f")
	if err != nil || len(locs) == 0 || len(locs[0]) == 0 {
		t.Fatalf("BlockLocations: %v %v", locs, err)
	}
	machine := locs[0][0]

	read := func() {
		t.Helper()
		got, err := md.ReadFile("/f")
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("ReadFile returned mismatched bytes")
		}
	}
	read()
	read() // second read is a cache hit on the holder
	if hits := counterValue(reg, "hdfs_node_cache_hits_total"); hits == 0 {
		t.Fatalf("expected node cache hits before crash, got 0")
	}

	if err := md.CrashMachine(machine); err != nil {
		t.Fatalf("CrashMachine: %v", err)
	}
	if err := md.RecoverMachine(machine); err != nil {
		t.Fatalf("RecoverMachine: %v", err)
	}
	missesBefore := counterValue(reg, "hdfs_node_cache_misses_total")
	read() // recovered node must refill from the rescanned store
	if misses := counterValue(reg, "hdfs_node_cache_misses_total"); misses <= missesBefore {
		t.Fatalf("recovered node served from a warm cache: misses %d -> %d", missesBefore, misses)
	}
}
