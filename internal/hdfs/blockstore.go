// Datanode block storage.
//
// A dataNode delegates its byte storage to a BlockStore. Every datanode
// runs the extent store: blocks live in append-only segment files with
// per-chunk CRCs, so a machine crash discards the in-memory index and
// recovery re-scans the disk. Without Config.StoreFactory the stores
// sit in a directory the Cluster makes and removes on Close; with it
// (ExtentStoreFactory, or a decorator over it) the caller chooses where.
package hdfs

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"

	"repro/internal/crc"
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
// safe for concurrent use: the dataNode serialises lifecycle calls under
// its leaf mutex, but reads, writes, deletes and Has run outside it —
// concurrently with each other and with a Close that a crash issues,
// after which they must fail rather than serve stale bytes (a Put that
// fails with extent.ErrClosed is re-placed by the write).
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
	// injection hook. It must corrupt the STORED bytes on disk, not a
	// cached copy.
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
// into a recycled buffer, and the extent store reads and verifies only
// the chunks covering the range. Every store in this package has it;
// one without (an outside decorator that only knows the BlockStore
// surface) is read whole through Get.
type intoStore interface {
	GetInto(id BlockID, offset, length int64, dst []byte) ([]byte, error)
}

// checkedStore is implemented by stores that checksum a payload as they
// store it, in the one pass their chunk table takes: PutChecked stores
// data only when its CRC-32 is want, and Checksum returns the CRC-32 of
// the block the store holds, derived from that table without a second
// pass over the bytes. The extent store (and the cache over it) has it;
// a store without it is checksummed by the caller — the CRC computed
// over the bytes, then a plain Put.
type checkedStore interface {
	PutChecked(id BlockID, data []byte, want uint32) error
	Checksum(id BlockID) (uint32, error)
}

// sendStore is implemented by stores that keep a replica's bytes in a
// file they can hand to a send: SendBlock calls send with the file's
// descriptor, the block's offset in it and its length
// (extent.Store.Send), and reads and verifies nothing — the receiver
// checks the block's CRC-32. Only the extent store has it: the node
// cache serves from memory, and a decorator that knows only the
// BlockStore surface hides it.
type sendStore interface {
	SendBlock(id BlockID, send extent.SendFunc) error
}

// abandonStore is implemented by stores that can be closed as a crash
// closes them: Abandon releases the store without syncing anything.
type abandonStore interface {
	Abandon() error
}

// abandon closes st as a crash would: unsynced when st can be.
func abandon(st BlockStore) error {
	if a, ok := st.(abandonStore); ok {
		return a.Abandon()
	}
	return st.Close()
}

// putChecked stores data on st only when its CRC-32 is want; otherwise
// it is ErrCorruptReplica and nothing is written.
func putChecked(st BlockStore, id BlockID, data []byte, want uint32) error {
	if cs, ok := st.(checkedStore); ok {
		return cs.PutChecked(id, data, want)
	}
	if crc.Checksum(data) != want {
		return fmt.Errorf("%w: block %d does not match its checksum", ErrCorruptReplica, id)
	}
	return st.Put(id, data)
}

// storedChecksum returns the CRC-32 of block id as st holds it, given
// data, the block's bytes as just read from or written to st: the
// store's own when it keeps one (a replica holds exactly its block's
// bytes), computed over data otherwise or when the store cannot answer.
func storedChecksum(st BlockStore, id BlockID, data []byte) uint32 {
	if cs, ok := st.(checkedStore); ok {
		if sum, err := cs.Checksum(id); err == nil {
			return sum
		}
	}
	return crc.Checksum(data)
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

// extentBlockStore adapts an extent.Store to the BlockStore surface,
// translating its typed errors into the hdfs vocabulary.
type extentBlockStore struct {
	s *extent.Store
}

func (e extentBlockStore) Put(id BlockID, data []byte) error { return e.s.Put(int64(id), data) }

func (e extentBlockStore) PutChecked(id BlockID, data []byte, want uint32) error {
	err := e.s.PutChecked(int64(id), data, want)
	if errors.Is(err, extent.ErrChecksumMismatch) {
		return fmt.Errorf("%w: %w", ErrCorruptReplica, err)
	}
	return err
}

func (e extentBlockStore) Checksum(id BlockID) (uint32, error) { return e.s.Checksum(int64(id)) }

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

func (e extentBlockStore) SendBlock(id BlockID, send extent.SendFunc) error {
	err := e.s.Send(int64(id), send)
	if errors.Is(err, extent.ErrNotFound) {
		return fmt.Errorf("%w: block %d", ErrNotStored, id)
	}
	return err
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

func (e extentBlockStore) Abandon() error { return e.s.Abandon() }

// Extent exposes the wrapped extent store of a factory-built
// BlockStore (nil for other stores) — the benchmark reaches through
// it for Stats.
func (e extentBlockStore) Extent() *extent.Store { return e.s }

// ExtentStoreFactory returns a Config.StoreFactory that backs every
// datanode with an extent store under dir, one
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
