// The datanodes with their block stores, the machine-scoped
// accessors, and the machine lifecycle (fail, restore, crash, recover,
// decommission, close).
package hdfs

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/cluster"
	"repro/internal/ec"
	"repro/internal/extent"
	"repro/internal/telemetry"
)

// dataNode is one storage machine. Bytes live in a BlockStore on disk
// (the extent store); liveness is a flag so failures are reversible
// (unavailability) or permanent (decommission) at the caller's choice.
// A node additionally distinguishes crashed — the store handle is
// closed and only a reopen (disk re-scan) brings the bytes back, which
// is what makes kill/restart honest instead of a liveness-flag flip.
type dataNode struct {
	id int

	mu      sync.Mutex
	alive   bool
	crashed bool
	store   BlockStore
	// reopen rebuilds the store from durable state after a crash.
	reopen func() (BlockStore, error)

	cCorruptReads *telemetry.Counter
}

// storeBlock writes a replica. Like readRangeInto it holds the node's
// mutex only to check liveness and take the store handle, never across
// the disk write, so a machine-state transition does not wait for a
// pwrite. A crash that closes the store under the write fails it with
// extent.ErrClosed, which is reported as ErrNodeDown: the caller
// re-places the replica, as for a machine found down before the write.
func (d *dataNode) storeBlock(id BlockID, data []byte) error {
	st, err := d.liveStore()
	if err != nil {
		return err
	}
	return d.crashedUnder(st.Put(id, data))
}

// storeChecked is storeBlock for a replica whose CRC-32 the caller
// knows: one that does not match want is refused (putChecked) with
// ErrCorruptReplica, before anything is written.
func (d *dataNode) storeChecked(id BlockID, data []byte, want uint32) error {
	st, err := d.liveStore()
	if err != nil {
		return err
	}
	return d.crashedUnder(putChecked(st, id, data, want))
}

// liveStore returns the store handle, or ErrNodeDown when the node is.
func (d *dataNode) liveStore() (BlockStore, error) {
	alive, _, st := d.state()
	if !alive {
		return nil, fmt.Errorf("%w: node %d", ErrNodeDown, d.id)
	}
	return st, nil
}

// crashedUnder reports a write that a crash closed the store under as
// ErrNodeDown.
func (d *dataNode) crashedUnder(err error) error {
	if errors.Is(err, extent.ErrClosed) {
		return fmt.Errorf("%w: node %d crashed under the write", ErrNodeDown, d.id)
	}
	return err
}

// checksum returns the CRC-32 of block id as this node holds it, given
// data, its bytes as just read from or written to the node
// (storedChecksum).
func (d *dataNode) checksum(id BlockID, data []byte) uint32 {
	_, _, st := d.state()
	return storedChecksum(st, id, data)
}

// state reads the liveness and crashed flags and the store handle under
// the node's mutex, for I/O that then runs outside it.
func (d *dataNode) state() (alive, crashed bool, st BlockStore) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.alive, d.crashed, d.store
}

// readRange returns length bytes at offset, zero-padded past the
// block's physical end (striped blocks are logically padded to the
// stripe's shard size). A negative offset or length is an error, not a
// panic: repair plans are untrusted input by the time they reach a
// datanode. The result is the caller's own.
func (d *dataNode) readRange(id BlockID, offset, length int64) ([]byte, error) {
	return d.readRangeInto(id, offset, length, nil)
}

// readRangeInto is readRange for callers that recycle buffers: when the
// store can (intoStore), the range is read once, straight into buf, is
// checksummed there, and the result is a view of buf — no allocation
// and no second copy — and the extent store touches only the chunks
// covering the range. buf should have the block's padded size as
// capacity, which holds whatever any store reads for any range; a
// smaller (or nil) buf just means the read may allocate.
//
// The node's mutex is held only to check liveness and take the store
// handle, never across the disk read and its CRC pass: reads of one
// machine run in parallel, under the store's own lock. A crash that
// lands mid-read closes that store, so the read fails or completes
// from the bytes as they were; it never sees a reopened store.
func (d *dataNode) readRangeInto(id BlockID, offset, length int64, buf []byte) ([]byte, error) {
	if offset < 0 || length < 0 || offset+length < offset {
		return nil, fmt.Errorf("hdfs: invalid read range [%d, %d+%d) of block %d", offset, offset, length, id)
	}
	alive, _, st := d.state()
	if !alive {
		return nil, fmt.Errorf("%w: node %d", ErrNodeDown, d.id)
	}
	data, err := getInto(st, id, offset, length, buf)
	if err != nil {
		if errors.Is(err, ErrCorruptReplica) {
			d.cCorruptReads.Inc()
			return nil, err
		}
		if errors.Is(err, ErrNotStored) {
			return nil, fmt.Errorf("hdfs: node %d does not hold block %d", d.id, id)
		}
		return nil, err
	}
	have := int64(len(data))
	if have == length {
		return data[:length:length], nil
	}
	// The range runs past the block's physical end: pad with zeros, in
	// place when there is room (a recycled shard-sized buffer).
	if length <= int64(cap(data)) {
		data = data[:length:length]
		clear(data[have:])
		return data, nil
	}
	//repolint:ignore noalloc a read past the physical end of an exactly-sized buffer: the zero padding needs room
	out := make([]byte, length)
	copy(out, data)
	return out, nil
}

// sendBlock hands block id's stored bytes to send, unread and
// unchecked (sendStore), under readRangeInto's rule: the node's mutex
// covers the liveness check and the store handle, never the send. A
// crash during the send closes the store under it; the send completes
// from the file it started on or fails, and never sees a reopened
// store.
func (d *dataNode) sendBlock(id BlockID, send extent.SendFunc) error {
	alive, _, st := d.state()
	if !alive {
		return fmt.Errorf("%w: node %d", ErrNodeDown, d.id)
	}
	ss, ok := st.(sendStore)
	if !ok {
		return fmt.Errorf("hdfs: node %d's store cannot send a replica", d.id)
	}
	err := ss.SendBlock(id, send)
	if errors.Is(err, ErrNotStored) {
		return fmt.Errorf("hdfs: node %d does not hold block %d", d.id, id)
	}
	return err
}

// delete and has follow storeBlock's rule: the node's mutex covers the
// crashed flag and the store handle, not the store call.
func (d *dataNode) delete(id BlockID) {
	_, crashed, st := d.state()
	if crashed {
		return
	}
	// A failed durable delete — or one whose store a crash closes under
	// it — leaves a stale replica the metadata no longer lists; it must
	// not fail the metadata-side delete.
	_ = st.Delete(id)
}

func (d *dataNode) has(id BlockID) bool {
	_, crashed, st := d.state()
	return !crashed && st.Has(id)
}

// blockIDs snapshots the stored block ids; ok is false while crashed
// (the store handle is gone — callers fall back to namenode metadata).
func (d *dataNode) blockIDs() (ids []BlockID, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return nil, false
	}
	return d.store.IDs(), true
}

func (d *dataNode) storedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return 0
	}
	return d.store.StoredBytes()
}

func (d *dataNode) setAlive(alive bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.alive = alive
}

func (d *dataNode) isAlive() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.alive
}

// crash closes the store handle, discarding every in-memory structure;
// durable bytes stay on disk for recover to re-scan. Like a real crash
// it syncs nothing (abandon): what the page cache holds is the kernel's
// to write back, and no fsync runs under the metadata lock that
// CrashMachine holds.
func (d *dataNode) crash() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return nil
	}
	d.crashed = true
	return abandon(d.store)
}

// recover reopens the store from disk, rebuilding the index by
// sequential segment scan. On failure the node stays crashed.
func (d *dataNode) recover() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.crashed {
		return nil
	}
	st, err := d.reopen()
	if err != nil {
		return err
	}
	d.store = st
	d.crashed = false
	return nil
}

func (d *dataNode) wipe() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		// Decommissioning a crashed node: reopen best-effort so the
		// durable replicas are actually destroyed, not orphaned.
		st, err := d.reopen()
		if err != nil {
			return
		}
		d.store = st
		d.crashed = false
	}
	for _, id := range d.store.IDs() {
		_ = d.store.Delete(id)
	}
}

// newDataNodes opens one store per machine through cfg.StoreFactory,
// which New has always set, and gives each node the reopen that
// RecoverMachine runs after CrashMachine.
func newDataNodes(cfg Config) ([]*dataNode, error) {
	var cCorrupt *telemetry.Counter
	if cfg.Telemetry != nil {
		cCorrupt = cfg.Telemetry.Counter("hdfs_corrupt_reads_total")
	}
	nodes := make([]*dataNode, cfg.Topology.Machines())
	for i := range nodes {
		n := &dataNode{id: i, alive: true, cCorruptReads: cCorrupt}
		// The cache wraps whatever store the node gets — including the
		// one a post-crash reopen rebuilds, so recovery comes back with
		// a fresh, cold cache instead of the dead store's.
		wrap := func(st BlockStore) BlockStore { return st }
		if cfg.NodeCacheBytes > 0 {
			wrap = func(st BlockStore) BlockStore {
				return newCachedBlockStore(st, cfg.NodeCacheBytes, cfg.Telemetry)
			}
		}
		machine := i
		n.reopen = func() (BlockStore, error) {
			st, err := cfg.StoreFactory(machine)
			if err != nil {
				return nil, err
			}
			return wrap(st), nil
		}
		st, err := n.reopen()
		if err != nil {
			for _, prev := range nodes[:i] {
				_ = prev.store.Close()
			}
			return nil, fmt.Errorf("hdfs: opening store for machine %d: %w", i, err)
		}
		n.store = st
		nodes[i] = n
	}
	return nodes, nil
}

// Network exposes the byte-accounting fabric.
func (c *Cluster) Network() *cluster.Network { return c.net }

// Code returns the configured codec.
func (c *Cluster) Code() ec.Code { return c.cfg.Code }

// machine bounds-checks a machine id coming from outside the package.
func (c *Cluster) machine(id int) (*dataNode, error) {
	if id < 0 || id >= len(c.nodes) {
		return nil, fmt.Errorf("hdfs: no machine %d", id)
	}
	return c.nodes[id], nil
}

// TotalStoredBytes sums the physical bytes held by live and dead
// datanodes — the denominator of storage-overhead measurements.
func (c *Cluster) TotalStoredBytes() int64 {
	var total int64
	for _, n := range c.nodes {
		total += n.storedBytes()
	}
	return total
}

// Machines returns the number of datanodes in the cluster.
func (c *Cluster) Machines() int { return len(c.nodes) }

// Topology returns the cluster's rack/machine layout — the serving
// layer hands its geometry to clients so partial-sum fold trees can be
// planned rack-aware.
func (c *Cluster) Topology() cluster.Topology { return c.cfg.Topology }

// BlockSize returns the configured block payload bound. Shard sizes
// never exceed it rounded up to the codec's alignment, which is the
// bound the serving layer enforces on partial-sum fold buffers.
func (c *Cluster) BlockSize() int64 { return c.cfg.BlockSize }

// MachineAlive reports whether the machine currently answers
// heartbeats.
func (c *Cluster) MachineAlive(id int) bool {
	if id < 0 || id >= len(c.nodes) {
		return false
	}
	return c.nodes[id].isAlive()
}

// Replication returns the configured replica target for un-striped
// files.
func (c *Cluster) Replication() int { return c.cfg.Replication }

// NodeReadRangeInto serves a range read of one replica directly from
// one datanode's store — the serving layer's datanode daemons answer
// range reads with it, touching only the node's leaf lock, never the
// namenode metadata. Reads past the block's physical end are
// zero-padded, exactly as readRange pads striped blocks to the shard
// size. The bytes land in buf when its capacity holds the block's
// padded size (the result is then a view of buf, which the caller may
// recycle once done with the result); a smaller or nil buf allocates.
func (c *Cluster) NodeReadRangeInto(machine int, id BlockID, offset, length int64, buf []byte) ([]byte, error) {
	node, err := c.machine(machine)
	if err != nil {
		return nil, err
	}
	return node.readRangeInto(id, offset, length, buf)
}

// NodeBlockSender returns one datanode's send of whole replicas from
// their files, unchecked (sendStore), or nil when its store keeps none
// (the node cache, a decorator): such a node's replicas are read with
// NodeReadRangeInto. Like that read, the send touches only the node's
// leaf lock, and the store's lock is released before the SendFunc runs.
func (c *Cluster) NodeBlockSender(machine int) func(id BlockID, send extent.SendFunc) error {
	node, err := c.machine(machine)
	if err != nil {
		return nil
	}
	_, _, st := node.state()
	if _, ok := st.(sendStore); !ok {
		return nil
	}
	return node.sendBlock
}

// locked applies one machine-state change under the metadata lock. The
// lock orders the change against what is decided under it from
// liveness: placement, and the fixer's planning and application. It
// does not order the change against the I/O of a write or raid, which
// plans under the lock, stores with it released, and commits under it
// again. Such a write can find its planned machine down at store time
// (or crashed under the store) and re-places that replica (storePlaced)
// rather than failing; a replica stored just before its machine died is
// committed anyway, which is the state the change would have left had
// it landed just after the commit — the fixer restores it. Every change
// is idempotent (the node's crashed flag makes the store close and
// reopen exactly once) and leaves the node consistent — never alive
// with a closed store — however changes interleave. When locked
// returns, no critical section that began before the change is still
// running.
func (c *Cluster) locked(change func() error) error {
	c.lockMeta()
	defer c.mu.Unlock()
	return change()
}

// FailMachine marks a machine unavailable. Its blocks become
// unreachable but are retained, so RecoverMachine models the common
// case of §2.2 (machines return after transient unavailability). An
// unknown machine is left alone.
func (c *Cluster) FailMachine(id int) {
	node, err := c.machine(id)
	if err != nil {
		return
	}
	_ = c.locked(func() error {
		node.setAlive(false)
		return nil
	})
}

// CrashMachine is FailMachine plus the part FailMachine cannot honestly
// model: the store handle is closed and every in-memory index structure
// is discarded. Only RecoverMachine's disk re-scan brings the replicas
// back.
func (c *Cluster) CrashMachine(id int) error {
	node, err := c.machine(id)
	if err != nil {
		return err
	}
	return c.locked(func() error {
		node.setAlive(false)
		return node.crash()
	})
}

// RecoverMachine brings a failed or crashed machine back with its
// blocks intact. A crashed machine's store is reopened first —
// rebuilding its block index by sequentially scanning the segment files
// on disk — and the machine stays dead if the scan fails.
func (c *Cluster) RecoverMachine(id int) error {
	node, err := c.machine(id)
	if err != nil {
		return err
	}
	return c.locked(func() error {
		if err := node.recover(); err != nil {
			return err
		}
		node.setAlive(true)
		return nil
	})
}

// DecommissionMachine permanently removes a machine: its blocks are
// wiped before it is marked down, so even restoring it returns nothing.
// An unknown machine is left alone.
func (c *Cluster) DecommissionMachine(id int) {
	node, err := c.machine(id)
	if err != nil {
		return
	}
	_ = c.locked(func() error {
		node.wipe()
		node.setAlive(false)
		return nil
	})
}

// Close releases every datanode's store, once each, and then removes
// the directory New made for them when Config.StoreFactory was nil —
// also when a store fails to close. A factory's own directory is left
// in place. The cluster must not be in use, nor be used afterwards.
func (c *Cluster) Close() error {
	var first error
	for _, n := range c.nodes {
		n.mu.Lock()
		err := n.store.Close()
		n.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	if c.dir != "" {
		if err := os.RemoveAll(c.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}
