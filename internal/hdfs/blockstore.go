// Pluggable datanode block storage.
//
// A dataNode delegates its byte storage to a BlockStore: the default
// memStore keeps the historical in-memory map semantics (fast, volatile
// — every existing test keeps its speed), while the extent-backed store
// persists blocks to append-only segment files with per-record CRCs, so
// a machine crash genuinely discards the in-memory index and recovery
// genuinely re-scans the disk (Config.StoreFactory / ExtentStoreFactory
// select it).
package hdfs

import (
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/extent"
)

// Storage-layer errors the read path branches on.
var (
	// ErrCorruptReplica reports a replica whose stored payload failed
	// checksum verification — callers treat the replica as lost (evict,
	// degraded-read fallback), never retry the same copy.
	ErrCorruptReplica = errors.New("hdfs: replica failed checksum verification")
	// ErrNotStored reports a block id the store does not hold.
	ErrNotStored = errors.New("hdfs: block not stored")
)

// BlockStore is one datanode's byte storage. Implementations need not
// be internally synchronised against other stores, but must tolerate
// the dataNode's concurrency: all calls arrive under the node's leaf
// mutex.
type BlockStore interface {
	// Put stores (or overwrites) a block payload.
	Put(id BlockID, data []byte) error
	// Get returns the full payload in a buffer the caller owns: it
	// aliases no store memory, so the read path hands out sub-slices of
	// it without copying. Missing blocks are ErrNotStored; payloads
	// failing verification are ErrCorruptReplica.
	Get(id BlockID) ([]byte, error)
	// Delete removes the block (no-op when absent).
	Delete(id BlockID) error
	// Has reports whether the store holds the block.
	Has(id BlockID) bool
	// IDs lists the stored block ids (any order).
	IDs() []BlockID
	// StoredBytes sums live payload bytes.
	StoredBytes() int64
	// Corrupt flips one stored payload byte in place — the bit-rot
	// injection hook. It must corrupt the STORED bytes (disk for a
	// persistent store), not a cached copy.
	Corrupt(id BlockID, offset int64) error
	// Close releases the store's resources.
	Close() error
}

// intoStore is implemented by stores that can read a payload into
// caller memory: GetInto is Get landing in dst when its capacity holds
// the payload (the result is then dst[:n]), so the block fixer reads
// every helper into a recycled buffer. Every store in this package has
// it; one without (an outside decorator that only knows the BlockStore
// surface) is read through Get.
type intoStore interface {
	GetInto(id BlockID, dst []byte) ([]byte, error)
}

// getInto reads id from st into dst when the store can, through the
// allocating Get when it cannot.
func getInto(st BlockStore, id BlockID, dst []byte) ([]byte, error) {
	if into, ok := st.(intoStore); ok {
		return into.GetInto(id, dst)
	}
	return st.Get(id)
}

// memStore is the historical volatile store: a plain map. It survives
// CrashMachine by fiat (there is no disk to recover from), keeping the
// pre-persistence test suite's semantics and speed.
type memStore struct {
	blocks map[BlockID][]byte
}

func newMemStore() *memStore { return &memStore{blocks: make(map[BlockID][]byte)} }

func (m *memStore) Put(id BlockID, data []byte) error {
	m.blocks[id] = append([]byte(nil), data...)
	return nil
}

func (m *memStore) Get(id BlockID) ([]byte, error) { return m.GetInto(id, nil) }

// GetInto copies the payload out — into dst when it fits — because the
// map's slice is the store's own: Corrupt flips its bytes in place.
func (m *memStore) GetInto(id BlockID, dst []byte) ([]byte, error) {
	data, ok := m.blocks[id]
	if !ok {
		return nil, fmt.Errorf("%w: block %d", ErrNotStored, id)
	}
	return append(dst[:0], data...), nil
}

func (m *memStore) Delete(id BlockID) error {
	delete(m.blocks, id)
	return nil
}

func (m *memStore) Has(id BlockID) bool {
	_, ok := m.blocks[id]
	return ok
}

func (m *memStore) IDs() []BlockID {
	out := make([]BlockID, 0, len(m.blocks))
	for id := range m.blocks {
		out = append(out, id)
	}
	return out
}

func (m *memStore) StoredBytes() int64 {
	var total int64
	for _, b := range m.blocks {
		total += int64(len(b))
	}
	return total
}

func (m *memStore) Corrupt(id BlockID, offset int64) error {
	data, ok := m.blocks[id]
	if !ok {
		return fmt.Errorf("%w: block %d", ErrNotStored, id)
	}
	if offset < 0 || offset >= int64(len(data)) {
		return fmt.Errorf("hdfs: offset %d outside block of %d bytes", offset, len(data))
	}
	data[offset] ^= 0xFF
	return nil
}

func (m *memStore) Close() error { return nil }

// extentBlockStore adapts an extent.Store to the BlockStore surface,
// translating its typed errors into the hdfs vocabulary.
type extentBlockStore struct {
	s *extent.Store
}

func (e extentBlockStore) Put(id BlockID, data []byte) error { return e.s.Put(int64(id), data) }

func (e extentBlockStore) Get(id BlockID) ([]byte, error) { return e.GetInto(id, nil) }

func (e extentBlockStore) GetInto(id BlockID, dst []byte) ([]byte, error) {
	data, err := e.s.GetInto(int64(id), dst)
	switch {
	case err == nil:
		return data, nil
	case errors.Is(err, extent.ErrNotFound):
		return nil, fmt.Errorf("%w: block %d", ErrNotStored, id)
	case extent.IsCorrupt(err):
		return nil, fmt.Errorf("%w: block %d", ErrCorruptReplica, id)
	}
	return nil, err
}

func (e extentBlockStore) Delete(id BlockID) error { return e.s.Delete(int64(id)) }

func (e extentBlockStore) Has(id BlockID) bool { return e.s.Has(int64(id)) }

func (e extentBlockStore) IDs() []BlockID {
	raw := e.s.IDs()
	out := make([]BlockID, len(raw))
	for i, id := range raw {
		out[i] = BlockID(id)
	}
	return out
}

func (e extentBlockStore) StoredBytes() int64 { return e.s.StoredBytes() }

func (e extentBlockStore) Corrupt(id BlockID, offset int64) error {
	err := e.s.Corrupt(int64(id), offset)
	if errors.Is(err, extent.ErrNotFound) {
		return fmt.Errorf("%w: block %d", ErrNotStored, id)
	}
	return err
}

func (e extentBlockStore) Close() error { return e.s.Close() }

// Extent exposes the wrapped extent store of a factory-built
// BlockStore (nil for other stores) — the benchmark reaches through
// it for Stats.
func (e extentBlockStore) Extent() *extent.Store { return e.s }

// ExtentStoreFactory returns a Config.StoreFactory that backs every
// datanode with a persistent extent store under dir, one
// "dn-NNN" subdirectory per machine. The factory is reopen-safe:
// calling it again for the same machine re-scans the machine's
// segments, which is exactly what RecoverMachine does after a crash.
func ExtentStoreFactory(dir string, opts extent.Options) func(machine int) (BlockStore, error) {
	return func(machine int) (BlockStore, error) {
		o := opts
		o.Dir = filepath.Join(dir, fmt.Sprintf("dn-%03d", machine))
		s, err := extent.Open(o)
		if err != nil {
			return nil, err
		}
		return extentBlockStore{s}, nil
	}
}
