// The physical plane: the datanodes with their pluggable block stores,
// the state every metadata shard shares, and the machine lifecycle
// (fail, restore, crash, recover, decommission, close). Machines and
// racks are not shardable, so all of this exists once per Cluster.
package hdfs

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/ec"
	"repro/internal/telemetry"
)

// dataNode is one storage machine. Bytes live in a pluggable
// BlockStore (in-memory by default, extent-file-backed when the
// cluster is built with a StoreFactory); liveness is a flag so
// failures are reversible (unavailability) or permanent (decommission)
// at the caller's choice. A persistent node additionally distinguishes
// crashed — the store handle is closed and only a reopen (disk
// re-scan) brings the bytes back, which is what makes kill/restart
// honest instead of a liveness-flag flip.
type dataNode struct {
	id int

	mu      sync.Mutex
	alive   bool
	crashed bool
	store   BlockStore
	// reopen rebuilds the store from durable state after a crash; nil
	// for volatile stores, whose bytes survive a "crash" by fiat.
	reopen func() (BlockStore, error)

	cCorruptReads *telemetry.Counter
}

func (d *dataNode) storeBlock(id BlockID, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.alive {
		return fmt.Errorf("%w: node %d", ErrNodeDown, d.id)
	}
	return d.store.Put(id, data)
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
// and no second copy — and an extent-backed store touches only the
// chunks covering the range. buf should have the block's padded size
// as capacity, which holds whatever any store reads for any range; a
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
	d.mu.Lock()
	alive, st := d.alive, d.store
	d.mu.Unlock()
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

func (d *dataNode) delete(id BlockID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return
	}
	// A failed durable delete leaves a stale replica the scrubber will
	// find; it must not fail the metadata-side delete.
	_ = d.store.Delete(id)
}

func (d *dataNode) has(id BlockID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return false
	}
	return d.store.Has(id)
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
// durable bytes stay on disk for recover to re-scan. Volatile nodes
// (reopen == nil) keep their map — there is nothing to recover from.
func (d *dataNode) crash() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.reopen == nil || d.crashed {
		return nil
	}
	d.crashed = true
	return d.store.Close()
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
		// Decommissioning a crashed persistent node: reopen best-effort
		// so the durable replicas are actually destroyed, not orphaned.
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

// physical is the one physical plane under every metadata shard of a
// Cluster: the configuration, the datanode stores and the cross-rack
// traffic fabric. Machines and racks are not shardable, so there is
// exactly one, and every shard points at it.
type physical struct {
	cfg   Config
	net   *cluster.Network
	nodes []*dataNode
}

// newDataNodes builds the physical stores every metadata shard shares.
// With no StoreFactory every node gets the volatile in-memory store; a
// factory makes nodes persistent and crash-recoverable
// (CrashMachine/RecoverMachine).
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
		if cfg.StoreFactory != nil {
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
		} else {
			n.store = wrap(newMemStore())
		}
		nodes[i] = n
	}
	return nodes, nil
}

// Network exposes the byte-accounting fabric.
func (c *physical) Network() *cluster.Network { return c.net }

// Code returns the configured codec.
func (c *physical) Code() ec.Code { return c.cfg.Code }

// machine bounds-checks a machine id coming from outside the package.
func (c *physical) machine(id int) (*dataNode, error) {
	if id < 0 || id >= len(c.nodes) {
		return nil, fmt.Errorf("hdfs: no machine %d", id)
	}
	return c.nodes[id], nil
}

// TotalStoredBytes sums the physical bytes held by live and dead
// datanodes — the denominator of storage-overhead measurements.
func (c *physical) TotalStoredBytes() int64 {
	var total int64
	for _, n := range c.nodes {
		total += n.storedBytes()
	}
	return total
}

// Machines returns the number of datanodes in the cluster.
func (c *physical) Machines() int { return len(c.nodes) }

// Topology returns the cluster's rack/machine layout — the serving
// layer hands its geometry to clients so partial-sum fold trees can be
// planned rack-aware.
func (c *physical) Topology() cluster.Topology { return c.cfg.Topology }

// BlockSize returns the configured block payload bound. Shard sizes
// never exceed it rounded up to the codec's alignment, which is the
// bound the serving layer enforces on partial-sum fold buffers.
func (c *physical) BlockSize() int64 { return c.cfg.BlockSize }

// MachineAlive reports whether the machine currently answers
// heartbeats.
func (c *physical) MachineAlive(id int) bool {
	if id < 0 || id >= len(c.nodes) {
		return false
	}
	return c.nodes[id].isAlive()
}

// Replication returns the configured replica target for un-striped
// files.
func (c *physical) Replication() int { return c.cfg.Replication }

// NodeReadRangeInto serves a range read of one replica directly from
// one datanode's store — the serving layer's datanode daemons answer
// range reads with it, touching only the node's leaf lock, never the
// namenode metadata. Reads past the block's physical end are
// zero-padded, exactly as readRange pads striped blocks to the shard
// size. The bytes land in buf when its capacity holds the block's
// padded size (the result is then a view of buf, which the caller may
// recycle once done with the result); a smaller or nil buf allocates.
func (c *physical) NodeReadRangeInto(machine int, id BlockID, offset, length int64, buf []byte) ([]byte, error) {
	node, err := c.machine(machine)
	if err != nil {
		return nil, err
	}
	return node.readRangeInto(id, offset, length, buf)
}

// transition applies one machine-state change under every shard's
// metadata lock IN TURN, stopping at the first error. This is the one
// locking rule of the plane: a machine's state never changes while a
// shard is between a liveness check and the act that relies on it — but
// only for the shard whose lock is held. The datanodes are shared, so
// the first turn already changes the machine for everyone: a write or
// raid running under a later shard's lock can pass its liveness check
// and then find the machine down at store time, and re-places that
// replica (storePlacedLocked) rather than failing. Every change is
// idempotent (the node's crashed flag makes the store close and reopen
// exactly once), and each turn leaves the node consistent — never alive
// with a closed store — however transitions interleave. When transition
// returns, every mutation that saw the old state has finished.
func (c *Cluster) transition(change func() error) error {
	for _, sh := range c.shards {
		if err := sh.locked(change); err != nil {
			return err
		}
	}
	return nil
}

// FailMachine marks a machine unavailable. Its blocks become
// unreachable but are retained, so RestoreMachine models the common
// case of §2.2 (machines return after transient unavailability).
func (c *Cluster) FailMachine(id int) {
	node := c.nodes[id]
	_ = c.transition(func() error {
		node.setAlive(false)
		return nil
	})
}

// RestoreMachine brings a machine back with its blocks intact. If the
// machine had crashed (CrashMachine on a persistent store) its store
// is reopened first; a node whose disk cannot be re-scanned stays dead.
func (c *Cluster) RestoreMachine(id int) { _ = c.RecoverMachine(id) }

// CrashMachine is FailMachine plus the part FailMachine cannot honestly
// model for a persistent node: the store handle is closed and every
// in-memory index structure is discarded. Only RecoverMachine's disk
// re-scan brings the replicas back. For a volatile (in-memory) node it
// degenerates to FailMachine — there is no durable state to lose.
func (c *Cluster) CrashMachine(id int) error {
	node, err := c.machine(id)
	if err != nil {
		return err
	}
	return c.transition(func() error {
		node.setAlive(false)
		return node.crash()
	})
}

// RecoverMachine reopens a crashed machine's store — rebuilding its
// block index by sequentially scanning the segment files on disk — and
// marks it alive. The machine stays dead if the scan fails.
func (c *Cluster) RecoverMachine(id int) error {
	node, err := c.machine(id)
	if err != nil {
		return err
	}
	return c.transition(func() error {
		if err := node.recover(); err != nil {
			return err
		}
		node.setAlive(true)
		return nil
	})
}

// DecommissionMachine permanently removes a machine: its blocks are
// wiped before it is marked down, so even restoring it returns nothing.
func (c *Cluster) DecommissionMachine(id int) {
	node := c.nodes[id]
	_ = c.transition(func() error {
		node.wipe()
		node.setAlive(false)
		return nil
	})
}

// Close releases every datanode's store, once each — the stores belong
// to the plane, not to a shard. The cluster must not be in use, nor be
// used afterwards.
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
	return first
}
