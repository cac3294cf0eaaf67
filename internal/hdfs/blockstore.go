// Pluggable datanode block storage.
//
// A dataNode delegates its byte storage to a BlockStore: the default
// memStore keeps the historical in-memory map semantics (fast, volatile
// — every existing test keeps its speed), while the extent-backed store
// persists blocks to append-only segment files with per-chunk CRCs, so
// a machine crash genuinely discards the in-memory index and recovery
// genuinely re-scans the disk (Config.StoreFactory / ExtentStoreFactory
// select it).
package hdfs

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"

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

// BlockStore is one datanode's byte storage. Implementations must be
// safe for concurrent use: the dataNode serialises writes and lifecycle
// calls under its leaf mutex, but reads run outside it — concurrently
// with each other, with writes, and with a Close that a crash issues,
// after which they must fail rather than serve stale bytes.
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

// intoStore is implemented by stores that can read a range of a
// payload into caller memory: GetInto returns payload bytes
// [offset, offset+length), clipped to the payload's end, landing in dst
// when its capacity holds what the store reads for them — never more
// than the whole payload — and the result is then a view into dst. The
// block fixer and the datanode daemons read every helper range this way
// into a recycled buffer; the extent-backed store also reads and
// verifies only the chunks covering the range. Every store in this
// package has it; one without (an outside decorator that only knows the
// BlockStore surface) is read whole through Get.
type intoStore interface {
	GetInto(id BlockID, offset, length int64, dst []byte) ([]byte, error)
}

// wholeBlock is the length that asks GetInto for a payload's every byte.
const wholeBlock = math.MaxInt64

// getInto reads [offset, offset+length) of id from st into dst when the
// store can, through the allocating whole-block Get when it cannot.
func getInto(st BlockStore, id BlockID, offset, length int64, dst []byte) ([]byte, error) {
	if into, ok := st.(intoStore); ok {
		return into.GetInto(id, offset, length, dst)
	}
	data, err := st.Get(id)
	if err != nil {
		return nil, err
	}
	return clipRange(data, offset, length), nil
}

// clipRange returns data[offset:offset+length] clipped to data's end.
// offset and length are non-negative.
func clipRange(data []byte, offset, length int64) []byte {
	have := int64(len(data))
	if offset >= have {
		return data[:0]
	}
	if length > have-offset {
		length = have - offset
	}
	return data[offset : offset+length]
}

// memStore is the historical volatile store: a map behind a lock. It
// survives CrashMachine by fiat (there is no disk to recover from),
// keeping the pre-persistence test suite's semantics and speed.
type memStore struct {
	mu     sync.RWMutex
	blocks map[BlockID][]byte
}

func newMemStore() *memStore { return &memStore{blocks: make(map[BlockID][]byte)} }

func (m *memStore) Put(id BlockID, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blocks[id] = append([]byte(nil), data...)
	return nil
}

func (m *memStore) Get(id BlockID) ([]byte, error) { return m.GetInto(id, 0, wholeBlock, nil) }

// GetInto copies the range out — into dst when it fits — because the
// map's slice is the store's own: Corrupt flips its bytes in place.
func (m *memStore) GetInto(id BlockID, offset, length int64, dst []byte) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.blocks[id]
	if !ok {
		return nil, fmt.Errorf("%w: block %d", ErrNotStored, id)
	}
	return append(dst[:0], clipRange(data, offset, length)...), nil
}

func (m *memStore) Delete(id BlockID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.blocks, id)
	return nil
}

func (m *memStore) Has(id BlockID) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.blocks[id]
	return ok
}

func (m *memStore) IDs() []BlockID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]BlockID, 0, len(m.blocks))
	for id := range m.blocks {
		out = append(out, id)
	}
	return out
}

func (m *memStore) StoredBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var total int64
	for _, b := range m.blocks {
		total += int64(len(b))
	}
	return total
}

func (m *memStore) Corrupt(id BlockID, offset int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
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

func (e extentBlockStore) Get(id BlockID) ([]byte, error) { return e.GetInto(id, 0, wholeBlock, nil) }

func (e extentBlockStore) GetInto(id BlockID, offset, length int64, dst []byte) ([]byte, error) {
	data, err := e.s.ReadRangeInto(int64(id), offset, length, dst)
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
