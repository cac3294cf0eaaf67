// Package hdfs implements a miniature, in-process model of the HDFS +
// HDFS-RAID system the paper studies: a namenode tracking files, blocks,
// replica locations and stripes; rack-aware datanodes holding real
// bytes; a RaidNode that erasure-codes cold files (Fig. 2: k data blocks
// per stripe, byte-level striping, r parity blocks, every block of a
// stripe on its own rack); a BlockFixer that reconstructs blocks lost to
// machine failures by executing the codec's repair plan over the
// cluster network; and a degraded read path for clients that hit a
// missing block before the fixer does.
//
// Every byte a repair or degraded read moves between racks is charged to
// the cluster.Network fabric, so integration tests observe exactly the
// quantity the paper measures on the production cluster — cross-rack
// recovery traffic — while moving real data through the real codecs.
package hdfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/ec"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// Common errors.
var (
	ErrFileExists    = errors.New("hdfs: file already exists")
	ErrFileNotFound  = errors.New("hdfs: file not found")
	ErrBlockLost     = errors.New("hdfs: block unrecoverable")
	ErrAlreadyRaided = errors.New("hdfs: file already raided")
	ErrNodeDown      = errors.New("hdfs: datanode down")
)

// BlockID identifies a block cluster-wide.
type BlockID int64

// StripeID identifies an erasure-coding stripe.
type StripeID int64

// noStripe marks a block that is not part of any stripe.
const noStripe StripeID = -1

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

// blockMeta is the namenode's record of one block.
type blockMeta struct {
	id        BlockID
	file      string // "" for parity blocks
	index     int    // block index within the file, or parity index
	size      int64  // logical size (payload bytes)
	checksum  uint32 // CRC-32 (IEEE) of the payload, set at creation
	locations []int  // datanodes currently holding a replica
	stripe    StripeID
	stripePos int // position within the stripe [0, width)
}

// stripeMeta is the namenode's record of one erasure-coding stripe.
type stripeMeta struct {
	id        StripeID
	shardSize int64
	// blocks[pos] is the block at stripe position pos; phantom
	// positions (zero padding of a short tail stripe) hold -1.
	blocks []BlockID
}

// fileMeta is the namenode's record of one file.
type fileMeta struct {
	name   string
	size   int64
	blocks []BlockID
	raided bool
	// lastAccess is the logical-clock time (as nanoseconds) of the last
	// write or read; the RaidNode's cold-data policy keys off it (§2.1).
	// It is atomic so the read path can bump it while holding only the
	// metadata read lock.
	lastAccess atomic.Int64
}

// Config parameterises a Cluster.
type Config struct {
	// Topology is the rack/machine layout.
	Topology cluster.Topology
	// Code is the erasure codec used by the RaidNode.
	Code ec.Code
	// BlockSize is the maximum block payload (256 MB in production,
	// kilobytes in tests).
	BlockSize int64
	// Replication is the replica count for un-raided files (3 in the
	// paper's cluster).
	Replication int
	// Seed drives placement randomness and, for a sharded cluster, the
	// file-to-shard consistent hash.
	Seed int64
	// Shards partitions the metadata plane: files are assigned to one
	// of Shards independent metadata shards by seeded consistent hash,
	// each with its own metadata lock, placement rng, fixer pass,
	// scrubber cursor, and repair queue. 0 or 1 selects the single
	// Cluster; Open returns a ShardedCluster for Shards > 1. Prefer
	// WithShards(n).
	Shards int
	// RepairParallelism bounds how many stripe repairs the BlockFixer
	// executes concurrently through the stripe-repair engine; 0 selects
	// GOMAXPROCS. Repaired bytes and traffic accounting are identical
	// at any setting.
	//
	// Deprecated: prefer WithRepairParallelism(n); the field keeps
	// working.
	RepairParallelism int
	// PartialSumRepair routes single-block stripe repairs through the
	// distributed partial-sum pipeline when the codec supports linear
	// repair plans: helpers fold coefficient-scaled ranges along a
	// rack-aware aggregation tree and the destination receives ONE
	// folded block instead of the plan's ~k ranges. Repaired bytes are
	// byte-identical; the network accounting changes shape (one
	// block-sized transfer per tree edge instead of a fan-in), which is
	// the point. Multi-block fixes and pipeline failures fall back to
	// the conventional fan-in transparently.
	//
	// Deprecated: prefer WithPartialSumRepair(); the field keeps
	// working.
	PartialSumRepair bool
	// Fabric, when non-nil, supplies link capacities for a netsim
	// contention model: every BlockFixer pass replays its stripe
	// repairs' actual wire transfers through the fabric and reports
	// simulated repair times in the FixReport. Racks and
	// MachinesPerRack are taken from Topology; only the capacity
	// fields of Fabric are used. Repaired bytes and the cluster
	// byte-accounting are unaffected. The replay's concurrency bound
	// is the repair engine's parallelism, so set RepairParallelism
	// explicitly for results reproducible across machines (0 follows
	// GOMAXPROCS); the bound used is recorded in
	// FixReport.SimulatedParallelism.
	//
	// Deprecated: prefer WithFabric(t); the field keeps working.
	Fabric *netsim.Topology
	// Telemetry, when non-nil, is the metrics registry the cluster
	// publishes into: per-shard metadata-lock gauges
	// (hdfs_lock_wait_seconds, hdfs_meta_ops) and the repair engine's
	// instruments. Prefer WithTelemetry(reg).
	Telemetry *telemetry.Registry
	// StoreFactory, when non-nil, builds each datanode's BlockStore
	// (ExtentStoreFactory for the persistent extent store). Nil keeps
	// the volatile in-memory store. The factory must be reopen-safe:
	// RecoverMachine calls it again after CrashMachine to rebuild the
	// node's index from durable state. Prefer WithStoreFactory(f).
	StoreFactory func(machine int) (BlockStore, error)
	// NodeCacheBytes, when positive, fronts every datanode's BlockStore
	// with a sharded LRU read cache of this byte budget (per machine):
	// hot-block reads skip the disk scan + CRC pass of a persistent
	// store. The cache invalidates on overwrite, delete, scrubber
	// eviction, corruption injection, and crash, and every hit is
	// liveness-double-checked, so cached bytes can never go stale.
	// Prefer WithNodeCacheBytes(n).
	NodeCacheBytes int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.Shards < 0 {
		return errors.New("hdfs: Shards must be >= 0")
	}
	if c.Code == nil {
		return errors.New("hdfs: Code is required")
	}
	if c.BlockSize <= 0 {
		return errors.New("hdfs: BlockSize must be positive")
	}
	if c.Replication < 1 {
		return errors.New("hdfs: Replication must be >= 1")
	}
	if c.Replication > c.Topology.Racks {
		return fmt.Errorf("hdfs: replication %d exceeds rack count %d", c.Replication, c.Topology.Racks)
	}
	if c.Code.TotalShards() > c.Topology.Racks {
		return fmt.Errorf("hdfs: stripe width %d exceeds rack count %d (one rack per block, §2.1)",
			c.Code.TotalShards(), c.Topology.Racks)
	}
	if c.Fabric != nil {
		if err := c.fabricTopology().Validate(); err != nil {
			return err
		}
	}
	return nil
}

// fabricTopology merges the cluster's rack/machine layout with the
// configured fabric capacities.
func (c Config) fabricTopology() netsim.Topology {
	t := *c.Fabric
	t.Racks = c.Topology.Racks
	t.MachinesPerRack = c.Topology.MachinesPerRack
	return t
}

// Cluster is the miniature DFS.
//
// Locking is layered so a serving frontend can drive many operations
// concurrently (race-detector clean):
//
//   - mu, a RWMutex, guards the namenode metadata (files, blocks,
//     stripes, id counters, clock). Healthy reads and degraded-read
//     reconstructions hold it in read mode and proceed in parallel;
//     mutations (writes, raiding, fixer planning/application) hold it
//     exclusively.
//   - Each dataNode has its own leaf mutex guarding its block store and
//     liveness flag, so block I/O on different machines never contends.
//   - rngMu serialises the placement rng, which is consumed from both
//     read paths (replica choice, degraded-read destinations) and write
//     paths. Placement stays deterministic for a fixed seed under
//     serial use.
//   - fixerMu serialises whole BlockFixer passes (one fixer at a time,
//     as in production HDFS-RAID) so a pass can release mu while its
//     stripe decodes run on the engine.
type Cluster struct {
	cfg   Config
	net   *cluster.Network
	nodes []*dataNode
	eng   *engine.Engine

	// idStride spaces block and stripe id allocation so a shard of a
	// ShardedCluster mints ids congruent to its index modulo the shard
	// count — the routing rule for id-addressed operations. A
	// standalone Cluster allocates densely (base 0, stride 1).
	idStride int64

	// lockWaitNanos accumulates time metadata operations spent WAITING
	// to acquire mu (read or write mode), and metaOps counts them —
	// the contention signal LockStats reports (and
	// BenchmarkShardedMetadataOps compares across shard counts).
	lockWaitNanos atomic.Int64
	metaOps       atomic.Int64

	rngMu   sync.Mutex
	rng     *rand.Rand
	fixerMu sync.Mutex

	mu         sync.RWMutex
	files      map[string]*fileMeta
	blocks     map[BlockID]*blockMeta
	stripes    map[StripeID]*stripeMeta
	nextBlock  BlockID
	nextStripe StripeID
	// now is the logical clock driving the raid policy.
	now time.Duration
	// scrubCursor is the next machine an incremental scrubber slice
	// starts from (round-robin over machines).
	scrubCursor int
}

// New builds an empty cluster. For a sharded metadata plane use
// Open (or NewSharded) with Config.Shards > 1.
func New(cfg Config, opts ...Option) (*Cluster, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards > 1 {
		return nil, fmt.Errorf("hdfs: New builds a single metadata shard; use Open or NewSharded for Shards=%d", cfg.Shards)
	}
	net, err := cluster.NewNetwork(cfg.Topology)
	if err != nil {
		return nil, err
	}
	nodes, err := newDataNodes(cfg)
	if err != nil {
		return nil, err
	}
	return newShard(cfg, net, nodes, 0, 1), nil
}

// Open builds the metadata plane cfg asks for: a single Cluster when
// Shards <= 1, a ShardedCluster otherwise. Callers that only need the
// Metadata surface should prefer it over New/NewSharded.
func Open(cfg Config, opts ...Option) (Metadata, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Shards > 1 {
		return NewSharded(cfg)
	}
	return New(cfg)
}

// newDataNodes builds the physical stores — shared across every
// metadata shard of a ShardedCluster. With no StoreFactory every node
// gets the volatile in-memory store; a factory makes nodes persistent
// and crash-recoverable (CrashMachine/RecoverMachine).
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

// newShard builds one metadata shard over (possibly shared) datanodes
// and network fabric, allocating block/stripe ids from base with the
// given stride.
func newShard(cfg Config, net *cluster.Network, nodes []*dataNode, base, stride int64) *Cluster {
	c := &Cluster{
		cfg:        cfg,
		net:        net,
		nodes:      nodes,
		eng:        engine.New(engine.Options{Parallelism: cfg.RepairParallelism, Telemetry: cfg.Telemetry}),
		idStride:   stride,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		files:      make(map[string]*fileMeta),
		blocks:     make(map[BlockID]*blockMeta),
		stripes:    make(map[StripeID]*stripeMeta),
		nextBlock:  BlockID(base),
		nextStripe: StripeID(base),
	}
	if reg := cfg.Telemetry; reg != nil {
		// base is unique per shard (shard i of n allocates ids from base
		// i), so it doubles as the shard label.
		shard := strconv.FormatInt(base, 10)
		reg.RegisterGauge(`hdfs_lock_wait_seconds{shard="`+shard+`"}`, func() float64 {
			return float64(c.lockWaitNanos.Load()) / 1e9
		})
		reg.RegisterGauge(`hdfs_meta_ops{shard="`+shard+`"}`, func() float64 {
			return float64(c.metaOps.Load())
		})
	}
	return c
}

// lockMeta / rlockMeta acquire the metadata mutex, charging the wait
// to the lock-contention counters the shard benchmark reports. EVERY
// metadata-mutex acquisition goes through them — repolint's
// lockdiscipline analyzer enforces it — with one carved-out exception:
// the per-read closures the engine's execution phase calls
// (stripeAlive/stripeFetch), where charging each survivor fetch would
// drown the serving-path contention signal.
func (c *Cluster) lockMeta() {
	t := time.Now()
	c.mu.Lock()
	c.lockWaitNanos.Add(int64(time.Since(t)))
	c.metaOps.Add(1)
}

func (c *Cluster) rlockMeta() {
	t := time.Now()
	c.mu.RLock()
	c.lockWaitNanos.Add(int64(time.Since(t)))
	c.metaOps.Add(1)
}

// LockStats is the metadata-lock contention summary: how long serving
// operations waited to acquire the metadata lock, and how many
// acquisitions that covers. A ShardedCluster reports the sum across
// its shards.
type LockStats struct {
	// WaitNanos is cumulative time spent blocked acquiring the
	// metadata lock (read + write mode) on the instrumented paths.
	WaitNanos int64
	// Acquisitions counts the instrumented acquisitions.
	Acquisitions int64
}

// LockStats returns the cumulative metadata-lock contention counters.
func (c *Cluster) LockStats() LockStats {
	return LockStats{WaitNanos: c.lockWaitNanos.Load(), Acquisitions: c.metaOps.Load()}
}

// Network exposes the byte-accounting fabric.
func (c *Cluster) Network() *cluster.Network { return c.net }

// randIntn draws from the placement rng under its own mutex, so both
// read paths (replica choice) and write paths (placement) share one
// deterministic stream.
func (c *Cluster) randIntn(n int) int {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.rng.Intn(n)
}

// placeStripe draws a rack-disjoint placement from the shared rng.
func (c *Cluster) placeStripe(n int) ([]int, error) {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return cluster.PlaceStripe(c.rng, c.cfg.Topology, n)
}

// pickReplacement draws a replacement machine from the shared rng.
func (c *Cluster) pickReplacement(excludeRacks map[int]bool) (int, error) {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return cluster.PickReplacement(c.rng, c.cfg.Topology, excludeRacks)
}

// pickReplica returns a random live holder so read load spreads across
// replicas instead of always hammering the first recorded location.
// The draw comes from the cluster's seeded rng: deterministic for a
// fixed seed under serial use.
func (c *Cluster) pickReplica(live []int) int {
	if len(live) == 1 {
		return live[0]
	}
	return live[c.randIntn(len(live))]
}

// Code returns the configured codec.
func (c *Cluster) Code() ec.Code { return c.cfg.Code }

// WriteFile stores data as a new file with the configured replication.
func (c *Cluster) WriteFile(name string, data []byte) error {
	if len(data) == 0 {
		return errors.New("hdfs: empty file")
	}
	c.lockMeta()
	defer c.mu.Unlock()
	if _, ok := c.files[name]; ok {
		return fmt.Errorf("%w: %s", ErrFileExists, name)
	}
	fm := &fileMeta{name: name, size: int64(len(data))}
	fm.lastAccess.Store(int64(c.now))
	for off := int64(0); off < int64(len(data)); off += c.cfg.BlockSize {
		end := off + c.cfg.BlockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		id := c.nextBlock
		c.nextBlock += BlockID(c.idStride)
		bm := &blockMeta{
			id:       id,
			file:     name,
			index:    len(fm.blocks),
			size:     end - off,
			checksum: crc32.ChecksumIEEE(data[off:end]),
			stripe:   noStripe,
		}
		machines, err := c.placeLiveLocked(c.cfg.Replication)
		if err != nil {
			return c.rollbackWriteLocked(fm, err)
		}
		for i := range machines {
			m, err := c.storePlacedLocked(machines, i, id, data[off:end])
			if err != nil {
				return c.rollbackWriteLocked(fm, err)
			}
			bm.locations = append(bm.locations, m)
		}
		c.blocks[id] = bm
		fm.blocks = append(fm.blocks, id)
	}
	c.files[name] = fm
	return nil
}

// rollbackWriteLocked undoes a partial WriteFile: blocks already placed
// for the never-published file are removed from the namespace and from
// their holders, so a failed write leaves no orphan metadata for the
// fixer to chase.
func (c *Cluster) rollbackWriteLocked(fm *fileMeta, cause error) error {
	for _, id := range fm.blocks {
		bm := c.blocks[id]
		for _, m := range bm.locations {
			c.nodes[m].delete(id)
		}
		delete(c.blocks, id)
	}
	return cause
}

// placeLiveLocked selects n machines on distinct racks, substituting a
// live machine (on an unused rack where possible) for any dead pick —
// the namenode never targets a machine that missed its heartbeat.
func (c *Cluster) placeLiveLocked(n int) ([]int, error) {
	placement, err := c.placeStripe(n)
	if err != nil {
		return nil, err
	}
	used := make(map[int]bool, n)
	for _, m := range placement {
		used[c.cfg.Topology.RackOf(m)] = true
	}
	for i, m := range placement {
		if c.nodes[m].isAlive() {
			continue
		}
		delete(used, c.cfg.Topology.RackOf(m))
		alt, err := c.pickLiveMachine(used)
		if err != nil {
			return nil, err
		}
		placement[i] = alt
		used[c.cfg.Topology.RackOf(alt)] = true
	}
	return placement, nil
}

// storeReplaceAttempts bounds how often storePlacedLocked re-places one
// replica whose machine died between placement and store.
const storeReplaceAttempts = 3

// storePlacedLocked stores a block on placement[i] and returns the
// machine that took it. placeLiveLocked picked placement[i] alive, but
// the shards of a ShardedCluster share their datanodes while FailMachine
// takes each shard's metadata lock in turn: under this shard's lock the
// machine can still die to a FailMachine holding another's. A store
// refused with ErrNodeDown therefore re-places that one replica — on a
// live machine off the racks the rest of the placement uses, the rule
// placeLiveLocked applies — and records the move in placement, instead
// of failing the write.
func (c *Cluster) storePlacedLocked(placement []int, i int, id BlockID, data []byte) (int, error) {
	for attempt := 0; ; attempt++ {
		err := c.nodes[placement[i]].storeBlock(id, data)
		if !errors.Is(err, ErrNodeDown) || attempt == storeReplaceAttempts {
			return placement[i], err
		}
		used := make(map[int]bool, len(placement))
		for j, m := range placement {
			if j != i {
				used[c.cfg.Topology.RackOf(m)] = true
			}
		}
		alt, err := c.pickLiveMachine(used)
		if err != nil {
			return placement[i], err
		}
		placement[i] = alt
	}
}

// liveLocations returns the datanodes that are alive and hold the block.
func (c *Cluster) liveLocations(bm *blockMeta) []int {
	var out []int
	for _, m := range bm.locations {
		if c.nodes[m].isAlive() && c.nodes[m].has(bm.id) {
			out = append(out, m)
		}
	}
	return out
}

// hasLiveLocation reports whether liveLocations would be non-empty,
// without building the list: the fixer's scan asks it of every striped
// block in the namespace.
func (c *Cluster) hasLiveLocation(bm *blockMeta) bool {
	for _, m := range bm.locations {
		if c.nodes[m].isAlive() && c.nodes[m].has(bm.id) {
			return true
		}
	}
	return false
}

// ReadFile returns the file's contents, reconstructing missing striped
// blocks on the fly (degraded read) and charging that traffic to the
// network fabric. Reads of healthy replicas are not charged: the paper
// measures recovery traffic, not foreground traffic. Reads hold the
// metadata lock in read mode, so any number of healthy reads and
// degraded reconstructions run in parallel.
func (c *Cluster) ReadFile(name string) ([]byte, error) {
	c.rlockMeta()
	defer c.mu.RUnlock()
	fm, ok := c.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrFileNotFound, name)
	}
	fm.lastAccess.Store(int64(c.now))
	out := make([]byte, 0, fm.size)
	for _, id := range fm.blocks {
		buf, err := c.readBlockLocked(c.blocks[id])
		if err != nil {
			return nil, err
		}
		out = append(out, buf...)
	}
	return out, nil
}

// readBlockLocked returns one block's payload: live replicas are tried
// in random order (so read load spreads across holders); when none
// survives — or a holder dies between the liveness check and the read —
// the block is reconstructed at a live machine on a rack the stripe
// does not occupy, so every helper read crosses racks, the same
// accounting as a fixer repair. Callers hold c.mu in at least read
// mode.
func (c *Cluster) readBlockLocked(bm *blockMeta) ([]byte, error) {
	live := c.liveLocations(bm)
	for len(live) > 0 {
		i := 0
		if len(live) > 1 {
			i = c.randIntn(len(live))
		}
		buf, err := c.nodes[live[i]].readRange(bm.id, 0, bm.size)
		if err == nil {
			return buf, nil
		}
		live = append(live[:i], live[i+1:]...)
	}
	if bm.stripe == noStripe {
		return nil, fmt.Errorf("%w: block %d of %s", ErrBlockLost, bm.id, bm.file)
	}
	reader, err := c.pickLiveMachine(c.excludeRacksLocked(c.stripes[bm.stripe], bm.id))
	if err != nil {
		return nil, err
	}
	buf, err := c.reconstructBlockLocked(bm, reader)
	if err != nil {
		return nil, err
	}
	return buf[:bm.size], nil
}

// pickLiveMachine returns a random live machine, avoiding racks in the
// exclusion set when possible. It touches only the rng (behind rngMu)
// and the per-node liveness flags, so it is callable from read paths.
func (c *Cluster) pickLiveMachine(excludeRacks map[int]bool) (int, error) {
	if m, err := c.pickReplacement(excludeRacks); err == nil && c.nodes[m].isAlive() {
		return m, nil
	}
	// Retry a bounded number of times, then scan.
	for i := 0; i < 32; i++ {
		m := c.randIntn(len(c.nodes))
		if c.nodes[m].isAlive() && !excludeRacks[c.cfg.Topology.RackOf(m)] {
			return m, nil
		}
	}
	for m := range c.nodes {
		if c.nodes[m].isAlive() && !excludeRacks[c.cfg.Topology.RackOf(m)] {
			return m, nil
		}
	}
	for m := range c.nodes {
		if c.nodes[m].isAlive() {
			return m, nil
		}
	}
	return 0, errors.New("hdfs: no live machines")
}

// RaidFile erasure-codes a file in place (the RaidNode path): its blocks
// are grouped into stripes of k, parity blocks are computed at a random
// encoder machine, every block of each stripe is re-placed on its own
// rack, and the data blocks drop to a single replica. Short tail
// stripes are padded with phantom all-zero blocks, exactly as HDFS-RAID
// pads files whose block count is not a multiple of k.
func (c *Cluster) RaidFile(name string) error {
	c.lockMeta()
	defer c.mu.Unlock()
	fm, ok := c.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrFileNotFound, name)
	}
	if fm.raided {
		return fmt.Errorf("%w: %s", ErrAlreadyRaided, name)
	}
	k := c.cfg.Code.DataShards()
	for start := 0; start < len(fm.blocks); start += k {
		end := start + k
		if end > len(fm.blocks) {
			end = len(fm.blocks)
		}
		group := fm.blocks[start:end]
		if err := c.raidStripeLocked(group); err != nil {
			return fmt.Errorf("hdfs: raiding %s blocks [%d, %d): %w", name, start, end, err)
		}
	}
	fm.raided = true
	return nil
}

// raidStripeLocked encodes one group of <= k data blocks into a stripe.
func (c *Cluster) raidStripeLocked(group []BlockID) error {
	code := c.cfg.Code
	k := code.DataShards()
	width := code.TotalShards()

	// Shard size: the largest block in the group, rounded up to the
	// codec's alignment. Shorter blocks are zero-padded for encoding
	// but stored at their logical size.
	var shardSize int64
	for _, id := range group {
		if s := c.blocks[id].size; s > shardSize {
			shardSize = s
		}
	}
	if align := int64(code.MinShardSize()); shardSize%align != 0 {
		shardSize += align - shardSize%align
	}

	// Encoder machine reads every data block (cross-rack traffic: the
	// raid encoding itself is not free, it is simply not the quantity
	// the paper measures; tests reset counters after raiding).
	encoder, err := c.pickLiveMachine(nil)
	if err != nil {
		return err
	}
	shards := make([][]byte, width)
	for i, id := range group {
		bm := c.blocks[id]
		live := c.liveLocations(bm)
		if len(live) == 0 {
			return fmt.Errorf("%w: block %d", ErrBlockLost, id)
		}
		src := live[0]
		buf, err := c.nodes[src].readRange(id, 0, shardSize)
		if err != nil {
			return err
		}
		if err := c.net.Transfer(src, encoder, shardSize); err != nil {
			return err
		}
		shards[i] = buf
	}
	// Phantom padding for a short tail stripe.
	for i := len(group); i < k; i++ {
		shards[i] = make([]byte, shardSize)
	}
	if err := code.Encode(shards); err != nil {
		return err
	}

	// Place the stripe: one rack per block, live machines only.
	placement, err := c.placeLiveLocked(width)
	if err != nil {
		return err
	}

	sid := c.nextStripe
	c.nextStripe += StripeID(c.idStride)
	sm := &stripeMeta{id: sid, shardSize: shardSize, blocks: make([]BlockID, width)}
	for pos := range sm.blocks {
		sm.blocks[pos] = -1
	}

	// Move data blocks onto their stripe racks and drop extra replicas.
	for i, id := range group {
		bm := c.blocks[id]
		dst := placement[i]
		if !containsInt(bm.locations, dst) {
			live := c.liveLocations(bm)
			if len(live) == 0 {
				return fmt.Errorf("%w: block %d", ErrBlockLost, id)
			}
			src := live[0]
			buf, err := c.nodes[src].readRange(id, 0, bm.size)
			if err != nil {
				return err
			}
			if dst, err = c.storePlacedLocked(placement, i, id, buf); err != nil {
				return err
			}
			if err := c.net.Transfer(src, dst, bm.size); err != nil {
				return err
			}
		}
		for _, m := range bm.locations {
			if m != dst {
				c.nodes[m].delete(id)
			}
		}
		bm.locations = []int{dst}
		bm.stripe = sid
		bm.stripePos = i
		sm.blocks[i] = id
	}

	// Store parity blocks.
	for j := 0; j < width-k; j++ {
		pos := k + j
		id := c.nextBlock
		c.nextBlock += BlockID(c.idStride)
		dst, err := c.storePlacedLocked(placement, pos, id, shards[pos])
		if err != nil {
			return err
		}
		if err := c.net.Transfer(encoder, dst, shardSize); err != nil {
			return err
		}
		bm := &blockMeta{
			id:        id,
			file:      "",
			index:     j,
			size:      shardSize,
			checksum:  crc32.ChecksumIEEE(shards[pos]),
			locations: []int{dst},
			stripe:    sid,
			stripePos: pos,
		}
		c.blocks[id] = bm
		sm.blocks[pos] = id
	}
	c.stripes[sid] = sm
	return nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// stripeAliveLocked reports per-position availability: phantom
// positions are always available (they are known zeros), real positions
// require a live holder. Callers hold c.mu in at least read mode for
// every invocation of the returned func.
func (c *Cluster) stripeAliveLocked(sm *stripeMeta) ec.AliveFunc {
	return func(pos int) bool {
		if pos < 0 || pos >= len(sm.blocks) {
			return false
		}
		id := sm.blocks[pos]
		if id < 0 {
			return true // phantom zero block
		}
		return c.hasLiveLocation(c.blocks[id])
	}
}

// stripeAlive is stripeAliveLocked behind a per-call read lock, for use
// while c.mu is not held (the BlockFixer's engine execution phase).
func (c *Cluster) stripeAlive(sm *stripeMeta) ec.AliveFunc {
	inner := c.stripeAliveLocked(sm)
	return func(pos int) bool {
		//repolint:ignore lockdiscipline per-read closure on the engine execution path: charging every survivor fetch to LockStats would drown the serving-path contention signal
		c.mu.RLock()
		defer c.mu.RUnlock()
		return inner(pos)
	}
}

// stripeFetchLocked builds the codec fetch function for a stripe:
// phantom positions yield zeros for free; real positions read from a
// random live holder and charge the transfer to the destination
// machine. Each fetch reads the range the plan asks for — not the
// helper's whole block — once, into a shard-sized buffer drawn from
// scratch (the fixer passes its worker's arena; nil allocates), and
// returns a view of it — the codec only reads fetched
// buffers and never returns one, so the arena can be reset as soon as
// the repair returns. record, when non-nil, observes every (src, bytes)
// wire transfer — the contention model replays them through the netsim
// fabric. It is invoked from the worker executing the stripe's repair
// job, never concurrently for one stripe. Callers hold c.mu in at
// least read mode for every invocation of the returned func.
func (c *Cluster) stripeFetchLocked(sm *stripeMeta, dst int, record func(src int, bytes int64), scratch *engine.Scratch) ec.FetchFunc {
	return func(req ec.ReadRequest) ([]byte, error) {
		id := sm.blocks[req.Shard]
		if id < 0 {
			return make([]byte, req.Length), nil
		}
		bm := c.blocks[id]
		live := c.liveLocations(bm)
		if len(live) == 0 {
			return nil, fmt.Errorf("%w: stripe %d position %d", ErrBlockLost, sm.id, req.Shard)
		}
		src := c.pickReplica(live)
		var into []byte
		if scratch != nil {
			into = scratch.Bytes(int(sm.shardSize))
		}
		buf, err := c.nodes[src].readRangeInto(id, req.Offset, req.Length, into)
		if err != nil {
			return nil, err
		}
		if err := c.net.Transfer(src, dst, req.Length); err != nil {
			return nil, err
		}
		if record != nil {
			record(src, req.Length)
		}
		return buf, nil
	}
}

// stripeFetch is stripeFetchLocked behind a per-call read lock, for use
// while c.mu is not held (the BlockFixer's engine execution phase).
func (c *Cluster) stripeFetch(sm *stripeMeta, dst int, record func(src int, bytes int64), scratch *engine.Scratch) ec.FetchFunc {
	inner := c.stripeFetchLocked(sm, dst, record, scratch)
	return func(req ec.ReadRequest) ([]byte, error) {
		//repolint:ignore lockdiscipline per-read closure on the engine execution path: charging every survivor fetch to LockStats would drown the serving-path contention signal
		c.mu.RLock()
		defer c.mu.RUnlock()
		return inner(req)
	}
}

// reconstructBlockLocked rebuilds a striped block's full shard at the
// given machine, charging all fetches to the network. The result has
// shardSize bytes; callers truncate to the block's logical size.
//
// The target position is FORCED erased for the repair plan regardless
// of what the metadata thinks: the caller only lands here after every
// listed replica failed to serve (dead mid-read, or the store refused
// the bytes on checksum grounds), and the codec rejects repairing a
// position its alive-view reports present. A replica that cannot be
// read is a replica that does not exist.
func (c *Cluster) reconstructBlockLocked(bm *blockMeta, at int) ([]byte, error) {
	if bm.stripe == noStripe {
		return nil, fmt.Errorf("%w: block %d is not striped", ErrBlockLost, bm.id)
	}
	sm := c.stripes[bm.stripe]
	alive := c.stripeAliveLocked(sm)
	aliveExceptTarget := func(pos int) bool {
		if pos == bm.stripePos {
			return false
		}
		return alive(pos)
	}
	return c.cfg.Code.ExecuteRepair(bm.stripePos, sm.shardSize, aliveExceptTarget, c.stripeFetchLocked(sm, at, nil, nil))
}

// FailMachine marks a machine unavailable. Its blocks become
// unreachable but are retained, so RestoreMachine models the common
// case of §2.2 (machines return after transient unavailability).
// Liveness transitions take the metadata lock exclusively so they
// serialise against this cluster's mutations that check liveness and
// then act on it (placement during WriteFile, fixer planning and
// application). That holds for a Cluster on its own. As one shard of a
// ShardedCluster it shares its datanodes with the others, whose
// FailMachine does not take this lock: there a machine can die between
// a placement's liveness check and its store, and the store re-places
// the replica (storePlacedLocked).
func (c *Cluster) FailMachine(id int) {
	c.lockMeta()
	defer c.mu.Unlock()
	c.nodes[id].setAlive(false)
}

// RestoreMachine brings a machine back with its blocks intact. If the
// machine had crashed (CrashMachine on a persistent store) its store
// is reopened first; a node whose disk cannot be re-scanned stays dead.
func (c *Cluster) RestoreMachine(id int) {
	c.lockMeta()
	defer c.mu.Unlock()
	if err := c.nodes[id].recover(); err != nil {
		return
	}
	c.nodes[id].setAlive(true)
}

// CrashMachine is FailMachine plus the part FailMachine cannot honestly
// model for a persistent node: the store handle is closed and every
// in-memory index structure is discarded. Only RecoverMachine's disk
// re-scan brings the replicas back. For a volatile (in-memory) node it
// degenerates to FailMachine — there is no durable state to lose.
func (c *Cluster) CrashMachine(id int) error {
	c.lockMeta()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("hdfs: no machine %d", id)
	}
	c.nodes[id].setAlive(false)
	return c.nodes[id].crash()
}

// RecoverMachine reopens a crashed machine's store — rebuilding its
// block index by sequentially scanning the segment files on disk — and
// marks it alive. The machine stays dead if the scan fails.
func (c *Cluster) RecoverMachine(id int) error {
	c.lockMeta()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("hdfs: no machine %d", id)
	}
	if err := c.nodes[id].recover(); err != nil {
		return err
	}
	c.nodes[id].setAlive(true)
	return nil
}

// Close releases every datanode's store. The cluster must not be used
// afterwards.
func (c *Cluster) Close() error {
	c.lockMeta()
	defer c.mu.Unlock()
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

// DecommissionMachine permanently removes a machine: its blocks are
// wiped before it is marked down, so even restoring it returns nothing.
func (c *Cluster) DecommissionMachine(id int) {
	c.lockMeta()
	defer c.mu.Unlock()
	c.nodes[id].wipe()
	c.nodes[id].setAlive(false)
}

// FixReport summarises one BlockFixer pass.
type FixReport struct {
	// ScannedBlocks is the number of block records examined.
	ScannedBlocks int
	// RepairedStriped counts striped blocks reconstructed via the codec.
	RepairedStriped int
	// ReReplicated counts replicated blocks copied from a surviving
	// replica.
	ReReplicated int
	// PartialSumRepairs counts stripe repairs delivered by the
	// partial-sum aggregation pipeline (always zero unless
	// Config.PartialSumRepair is set).
	PartialSumRepairs int
	// Unrecoverable lists blocks that could not be restored.
	Unrecoverable []BlockID
	// CrossRackBytes is the cross-rack traffic this pass generated.
	CrossRackBytes int64
	// SimulatedRepairSeconds holds, when Config.Fabric is set, the
	// contention-simulated completion time of each successful stripe
	// repair (in stripe-fix order): the pass's transfers replayed
	// concurrently through the netsim fabric under the engine's
	// parallelism bound.
	SimulatedRepairSeconds []float64
	// SimulatedMakespanSeconds is the simulated wall time for the
	// whole pass (zero when Config.Fabric is nil or nothing was
	// repaired).
	SimulatedMakespanSeconds float64
	// SimulatedParallelism is the concurrency bound the replay ran
	// under — Config.RepairParallelism, or GOMAXPROCS when that was 0.
	// Simulated times are only comparable across machines when the
	// bound matches.
	SimulatedParallelism int
}

// RunBlockFixer scans every block and restores availability: lost
// striped blocks are grouped by stripe and reconstructed with one joint
// repair per stripe (§2.2: 1.87% of affected stripes have two blocks
// missing, and a joint decode shares its downloads across them);
// replicated blocks below their target replication are re-replicated
// from a surviving copy.
//
// A pass holds the metadata lock exclusively only while scanning /
// planning and while applying results; the stripe decodes themselves
// run on the engine with the lock released, so foreground reads
// (healthy and degraded) proceed in parallel with reconstruction.
// Passes are serialised against each other. In concurrent use,
// CrossRackBytes also includes recovery traffic from degraded reads
// that overlapped the pass.
func (c *Cluster) RunBlockFixer() (*FixReport, error) {
	c.fixerMu.Lock()
	defer c.fixerMu.Unlock()
	c.lockMeta()
	report := &FixReport{}
	before := c.net.CrossRackBytes()

	// Deterministic iteration: ascending block id.
	ids := make([]BlockID, 0, len(c.blocks))
	for id := range c.blocks {
		ids = append(ids, id)
	}
	slices.Sort(ids)

	lostByStripe := make(map[StripeID][]*blockMeta)
	var stripeOrder []StripeID
	for _, id := range ids {
		bm := c.blocks[id]
		report.ScannedBlocks++

		if bm.stripe != noStripe {
			if c.hasLiveLocation(bm) {
				continue
			}
			if _, seen := lostByStripe[bm.stripe]; !seen {
				stripeOrder = append(stripeOrder, bm.stripe)
			}
			lostByStripe[bm.stripe] = append(lostByStripe[bm.stripe], bm)
			continue
		}

		live := c.liveLocations(bm)
		target := c.cfg.Replication
		if len(live) >= target && len(live) > 0 {
			continue
		}
		if len(live) == 0 {
			report.Unrecoverable = append(report.Unrecoverable, id)
			continue
		}
		if err := c.reReplicateLocked(bm, live, target); err != nil {
			report.Unrecoverable = append(report.Unrecoverable, id)
			continue
		}
		report.ReReplicated++
	}

	simFn := c.repairStripes(lostByStripe, stripeOrder, report)
	report.CrossRackBytes = c.net.CrossRackBytes() - before
	c.mu.Unlock()
	if simFn != nil {
		if err := simFn(); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// repairStripes runs the stripe-repair pipeline for the given lost
// blocks — the shared engine behind a full RunBlockFixer pass and a
// targeted FixStripes call. It runs in three phases so many stripes
// decode concurrently through the engine. Planning (destination picks,
// which consume the cluster rng) stays serial in stripe order for
// determinism and holds the metadata lock; execution is a batch on
// the stripe-repair engine with the lock RELEASED — each fetch takes
// the read lock for its own duration, and the network fabric's byte
// accounting is thread-safe — so foreground reads interleave with
// the decodes; application (stores, onward shipping) retakes the
// lock and is serial again in stripe order.
//
// With PartialSumRepair set, single-block fixes of a linear-planning
// codec run as aggregation-tree folds instead of engine decodes; a
// pipeline that fails mid-fold (helper died) falls back to the
// conventional fan-in within its task.
//
// Callers hold fixerMu and c.mu exclusively; repairStripes returns
// with c.mu still held. The returned closure (nil unless a contention
// fabric is configured and fixes were applied) must be run after c.mu
// is released: it replays the recorded wire shape through the netsim
// fabric and fills the report's Simulated* fields.
func (c *Cluster) repairStripes(lostByStripe map[StripeID][]*blockMeta, stripeOrder []StripeID, report *FixReport) func() error {
	fixes := make([]*stripeFix, 0, len(stripeOrder))
	for _, sid := range stripeOrder {
		lost := lostByStripe[sid]
		fix, err := c.planStripeFixLocked(c.stripes[sid], lost)
		if err != nil {
			for _, bm := range lost {
				report.Unrecoverable = append(report.Unrecoverable, bm.id)
			}
			continue
		}
		fixes = append(fixes, fix)
	}
	outcomes := make([]fixOutcome, len(fixes))
	recordWire := c.cfg.Fabric != nil
	_, linearOK := c.cfg.Code.(ec.LinearRepairPlanner)
	// One task per fix, all submitted as a single engine batch so
	// conventional decodes and partial-sum folds share the parallelism
	// bound instead of draining in two phases.
	tasks := make([]func(*engine.Scratch) error, len(fixes))
	for i, f := range fixes {
		i, f := i, f
		// With a contention fabric configured, each fix records its
		// actual wire legs (fan-in transfers or fold-tree hops); one
		// recorder per fix, written only by the worker executing it.
		record := func(src int, bytes int64) {
			outcomes[i].transfers = append(outcomes[i].transfers, netsim.Transfer{Src: src, Bytes: bytes})
		}
		if !recordWire {
			record = nil
		}
		conventional := func(s *engine.Scratch) error {
			out := &outcomes[i]
			out.shards, out.err = c.cfg.Code.ExecuteMultiRepair(
				f.positions, f.sm.shardSize, c.stripeAlive(f.sm), c.stripeFetch(f.sm, f.worker(), record, s))
			return nil
		}
		if c.cfg.PartialSumRepair && linearOK && len(f.positions) == 1 {
			tasks[i] = func(s *engine.Scratch) error {
				shards, tree, err := c.executePartialFix(f, s)
				if err == nil {
					outcomes[i].shards, outcomes[i].tree = shards, tree
					return nil
				}
				return conventional(s)
			}
			continue
		}
		tasks[i] = conventional
	}
	c.mu.Unlock()
	c.eng.RunTasks(tasks)
	c.lockMeta()
	var applied []int
	for i, f := range fixes {
		if outcomes[i].err != nil {
			for _, bm := range f.lost {
				report.Unrecoverable = append(report.Unrecoverable, bm.id)
			}
			continue
		}
		repairedBefore := report.RepairedStriped
		c.applyStripeFixLocked(f, outcomes[i].shards, report)
		if outcomes[i].tree != nil && report.RepairedStriped > repairedBefore {
			report.PartialSumRepairs++
		}
		applied = append(applied, i)
	}
	if recordWire && len(applied) > 0 {
		return func() error {
			return c.simulateFixContention(fixes, outcomes, applied, report)
		}
	}
	return nil
}

// FixStripes repairs exactly the given stripes — the repair manager's
// targeted entry point, so a risk-prioritised queue can drain one
// stripe at a time instead of sweeping the whole namespace the way
// RunBlockFixer does. Lost blocks of each stripe run through the same
// three-phase pipeline (and the same partial-sum and contention-fabric
// behaviour) as a full fixer pass; stripes that turn out healthy are
// scanned and skipped. Unknown stripe ids are an error. Calls are
// serialised against full fixer passes by fixerMu.
func (c *Cluster) FixStripes(ids []StripeID) (*FixReport, error) {
	c.fixerMu.Lock()
	defer c.fixerMu.Unlock()
	c.lockMeta()
	report := &FixReport{}
	before := c.net.CrossRackBytes()
	lostByStripe := make(map[StripeID][]*blockMeta)
	var stripeOrder []StripeID
	seen := make(map[StripeID]bool, len(ids))
	for _, sid := range ids {
		if seen[sid] {
			continue
		}
		seen[sid] = true
		sm, ok := c.stripes[sid]
		if !ok {
			c.mu.Unlock()
			return nil, fmt.Errorf("hdfs: stripe %d not found", sid)
		}
		for _, bid := range sm.blocks {
			if bid < 0 {
				continue
			}
			bm := c.blocks[bid]
			report.ScannedBlocks++
			if c.hasLiveLocation(bm) {
				continue
			}
			if _, lost := lostByStripe[sid]; !lost {
				stripeOrder = append(stripeOrder, sid)
			}
			lostByStripe[sid] = append(lostByStripe[sid], bm)
		}
	}
	simFn := c.repairStripes(lostByStripe, stripeOrder, report)
	report.CrossRackBytes = c.net.CrossRackBytes() - before
	c.mu.Unlock()
	if simFn != nil {
		if err := simFn(); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// ReReplicateBlocks restores the replication target of exactly the
// given un-striped blocks — the repair manager's targeted counterpart
// to the fixer's re-replication sweep. Striped blocks are skipped
// (repair them via FixStripes); blocks already at target are scanned
// and skipped; blocks with no surviving replica are reported
// unrecoverable. Unknown block ids are skipped, not an error: the
// manager may hold a stale inventory of a machine whose blocks were
// since deleted.
func (c *Cluster) ReReplicateBlocks(ids []BlockID) (*FixReport, error) {
	c.fixerMu.Lock()
	defer c.fixerMu.Unlock()
	c.lockMeta()
	defer c.mu.Unlock()
	report := &FixReport{}
	before := c.net.CrossRackBytes()
	for _, id := range ids {
		bm, ok := c.blocks[id]
		if !ok || bm.stripe != noStripe {
			continue
		}
		report.ScannedBlocks++
		live := c.liveLocations(bm)
		target := c.cfg.Replication
		if len(live) >= target {
			continue
		}
		if len(live) == 0 {
			report.Unrecoverable = append(report.Unrecoverable, id)
			continue
		}
		if err := c.reReplicateLocked(bm, live, target); err != nil {
			report.Unrecoverable = append(report.Unrecoverable, id)
			continue
		}
		report.ReReplicated++
	}
	report.CrossRackBytes = c.net.CrossRackBytes() - before
	return report, nil
}

// fixOutcome is the execution-phase result of one planned stripe fix.
type fixOutcome struct {
	shards map[int][]byte
	err    error
	// transfers (fan-in legs) or the edges of tree (a fix the partial-sum
	// pipeline delivered) are what the contention replay runs; one is set.
	transfers []netsim.Transfer
	tree      *engine.AggPlan
}

// executePartialFix rebuilds the single lost block of a stripe in the
// tree shape: ask the codec for the linear plan, pin a live holder per
// helper position (pickReplica), lay the plan out as the rack-aware
// aggregation tree, and fold it in process (engine.FoldTree). Ranges are
// read into shard-sized buffers of the worker's arena, which hold
// whatever any store reads for any range; every tree edge and the final
// root → destination hop moves one shard-sized buffer through the
// network accounting. Runs with the metadata lock released; planning
// takes the read lock for its own duration (stripe position tables are
// immutable once created, and block I/O takes only datanode leaf locks).
func (c *Cluster) executePartialFix(f *stripeFix, scratch *engine.Scratch) (map[int][]byte, *engine.AggPlan, error) {
	pos, sm := f.positions[0], f.sm
	c.rlockMeta()
	plan, err := c.cfg.Code.(ec.LinearRepairPlanner).PlanLinearRepair(pos, sm.shardSize, c.stripeAliveLocked(sm))
	var tree *engine.AggPlan
	if err == nil {
		tree, err = engine.PlanRepairTree(plan, func(shard int) (int, bool, error) {
			id := sm.blocks[shard]
			if id < 0 {
				return 0, false, nil // phantom zero shard
			}
			live := c.liveLocations(c.blocks[id])
			if len(live) == 0 {
				return 0, false, fmt.Errorf("%w: stripe %d position %d", ErrBlockLost, sm.id, shard)
			}
			return c.pickReplica(live), true, nil
		}, c.cfg.Topology.RackOf)
	}
	c.mu.RUnlock()
	if err != nil {
		return nil, nil, err
	}
	read := func(machine int, req ec.ReadRequest) ([]byte, error) {
		return c.nodes[machine].readRangeInto(sm.blocks[req.Shard], req.Offset, req.Length, scratch.Bytes(int(sm.shardSize)))
	}
	carry := func(from, to int) error { return c.net.Transfer(from, to, sm.shardSize) }
	shard, err := tree.Repair(func(root *engine.AggNode) ([]byte, error) {
		return engine.FoldTree(root, f.worker(), sm.shardSize, read, carry)
	})
	if err != nil {
		return nil, nil, err
	}
	return map[int][]byte{pos: shard}, tree, nil
}

// simulateFixContention replays the applied fixes' recorded wire shape
// through the netsim fabric: all stripes submitted at time zero, FIFO,
// concurrency bounded by the repair engine's parallelism — the same
// shape the real pass executed with, but with every flow fair-sharing
// NICs, TOR links, and the aggregation switch. Conventional fixes
// replay as fan-ins; partial-sum fixes replay as their fold-tree hop
// pipelines.
func (c *Cluster) simulateFixContention(fixes []*stripeFix, outcomes []fixOutcome, applied []int, report *FixReport) error {
	sim, err := netsim.NewSimulator(c.cfg.fabricTopology())
	if err != nil {
		return err
	}
	sched := netsim.NewScheduler(sim, netsim.PolicyFIFO, c.eng.Parallelism())
	// Decode fan-ins first (IDs [0, len(applied))), then the onward
	// shipping legs of multi-block fixes: FIFO admission approximates
	// the real two-phase pass, where blocks ship only after decoding.
	for jobID, i := range applied {
		f := fixes[i]
		job := netsim.Job{ID: jobID, Dst: f.worker(), Transfers: append([]netsim.Transfer(nil), outcomes[i].transfers...)}
		if tree := outcomes[i].tree; tree != nil {
			job.Hops = tree.Hops(f.worker())
		}
		sched.Submit(job)
	}
	shipID := len(applied)
	for _, i := range applied {
		f := fixes[i]
		for j, bm := range f.lost {
			if dst := f.destinations[j]; dst != f.worker() {
				sched.Submit(netsim.Job{
					ID:        shipID,
					Dst:       dst,
					Transfers: []netsim.Transfer{{Src: f.worker(), Bytes: bm.size}},
				})
				shipID++
			}
		}
	}
	if err := sim.Run(math.Inf(1)); err != nil {
		return err
	}
	perFix := make([]float64, 0, len(applied))
	var makespan float64
	for _, r := range sched.Results() {
		if r.Finish > makespan {
			makespan = r.Finish
		}
		if r.ID < len(applied) {
			perFix = append(perFix, r.TotalSeconds())
		}
	}
	report.SimulatedRepairSeconds = perFix
	report.SimulatedMakespanSeconds = makespan
	report.SimulatedParallelism = c.eng.Parallelism()
	return nil
}

// excludeRacksLocked returns the racks hosting live blocks of the
// stripe, skipping the given block.
func (c *Cluster) excludeRacksLocked(sm *stripeMeta, skip BlockID) map[int]bool {
	exclude := make(map[int]bool)
	for _, peer := range sm.blocks {
		if peer < 0 || peer == skip {
			continue
		}
		for _, m := range c.liveLocations(c.blocks[peer]) {
			exclude[c.cfg.Topology.RackOf(m)] = true
		}
	}
	return exclude
}

// stripeFix is one planned stripe repair: which positions to rebuild
// and where each reconstructed block lands. The joint decode executes
// at the first destination (the worker); the other blocks are shipped
// onward from there.
type stripeFix struct {
	sm           *stripeMeta
	lost         []*blockMeta
	positions    []int
	destinations []int
}

// worker returns the machine the joint decode runs on.
func (f *stripeFix) worker() int { return f.destinations[0] }

// planStripeFixLocked picks a fresh-rack destination for every lost
// block of the stripe. Planning consumes the cluster rng, so callers
// must plan stripes in deterministic order.
func (c *Cluster) planStripeFixLocked(sm *stripeMeta, lost []*blockMeta) (*stripeFix, error) {
	exclude := c.excludeRacksLocked(sm, -1)
	fix := &stripeFix{
		sm:           sm,
		lost:         lost,
		positions:    make([]int, len(lost)),
		destinations: make([]int, len(lost)),
	}
	for i, bm := range lost {
		fix.positions[i] = bm.stripePos
		dst, err := c.pickLiveMachine(exclude)
		if err != nil {
			return nil, err
		}
		fix.destinations[i] = dst
		exclude[c.cfg.Topology.RackOf(dst)] = true
	}
	return fix, nil
}

// applyStripeFixLocked stores the reconstructed blocks at their planned
// destinations, shipping blocks onward from the decode worker, and
// accounts per block: a block that regained a live replica while the
// decode ran with the lock released (its machine was restored
// mid-pass) is left as it is; a block whose destination died mid-pass
// is recorded unrecoverable on its own, without disturbing the
// accounting of siblings in the same fix that did land.
func (c *Cluster) applyStripeFixLocked(f *stripeFix, shards map[int][]byte, report *FixReport) {
	worker := f.worker()
	for i, bm := range f.lost {
		if c.hasLiveLocation(bm) {
			continue
		}
		content := shards[bm.stripePos][:bm.size]
		dst := f.destinations[i]
		if dst != worker {
			if err := c.net.Transfer(worker, dst, bm.size); err != nil {
				report.Unrecoverable = append(report.Unrecoverable, bm.id)
				continue
			}
		}
		if err := c.nodes[dst].storeBlock(bm.id, content); err != nil {
			report.Unrecoverable = append(report.Unrecoverable, bm.id)
			continue
		}
		bm.locations = []int{dst}
		report.RepairedStriped++
	}
}

// reReplicateLocked copies a replicated block from a live replica until
// it reaches the target count, preferring fresh racks.
func (c *Cluster) reReplicateLocked(bm *blockMeta, live []int, target int) error {
	current := append([]int(nil), live...)
	for len(current) < target {
		exclude := make(map[int]bool)
		for _, m := range current {
			exclude[c.cfg.Topology.RackOf(m)] = true
		}
		dst, err := c.pickLiveMachine(exclude)
		if err != nil {
			return err
		}
		src := current[0]
		buf, err := c.nodes[src].readRange(bm.id, 0, bm.size)
		if err != nil {
			return err
		}
		if err := c.net.Transfer(src, dst, bm.size); err != nil {
			return err
		}
		if err := c.nodes[dst].storeBlock(bm.id, buf); err != nil {
			return err
		}
		current = append(current, dst)
	}
	bm.locations = current
	return nil
}

// FileInfo is a snapshot of one file's metadata.
type FileInfo struct {
	Name   string
	Size   int64
	Blocks int
	Raided bool
}

// Stat returns a file's metadata.
func (c *Cluster) Stat(name string) (FileInfo, error) {
	c.rlockMeta()
	defer c.mu.RUnlock()
	fm, ok := c.files[name]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrFileNotFound, name)
	}
	return FileInfo{Name: fm.name, Size: fm.size, Blocks: len(fm.blocks), Raided: fm.raided}, nil
}

// BlockLocations returns, for each block of the file, the machines
// currently holding live replicas.
func (c *Cluster) BlockLocations(name string) ([][]int, error) {
	c.rlockMeta()
	defer c.mu.RUnlock()
	fm, ok := c.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrFileNotFound, name)
	}
	out := make([][]int, len(fm.blocks))
	for i, id := range fm.blocks {
		out[i] = c.liveLocations(c.blocks[id])
	}
	return out, nil
}

// StripeOf returns the stripe id and position of a file's block, or
// noStripe if the file is not raided.
func (c *Cluster) StripeOf(name string, blockIndex int) (StripeID, int, error) {
	c.rlockMeta()
	defer c.mu.RUnlock()
	fm, ok := c.files[name]
	if !ok {
		return noStripe, 0, fmt.Errorf("%w: %s", ErrFileNotFound, name)
	}
	if blockIndex < 0 || blockIndex >= len(fm.blocks) {
		return noStripe, 0, fmt.Errorf("hdfs: block index %d out of range", blockIndex)
	}
	bm := c.blocks[fm.blocks[blockIndex]]
	return bm.stripe, bm.stripePos, nil
}

// StripeRacks returns the racks hosting live blocks of the stripe —
// tests use it to assert the one-rack-per-block invariant.
func (c *Cluster) StripeRacks(id StripeID) ([]int, error) {
	c.rlockMeta()
	defer c.mu.RUnlock()
	sm, ok := c.stripes[id]
	if !ok {
		return nil, fmt.Errorf("hdfs: stripe %d not found", id)
	}
	var racks []int
	for _, bid := range sm.blocks {
		if bid < 0 {
			continue
		}
		for _, m := range c.liveLocations(c.blocks[bid]) {
			racks = append(racks, c.cfg.Topology.RackOf(m))
		}
	}
	return racks, nil
}

// ClusterStats is a point-in-time inventory of the DFS.
type ClusterStats struct {
	// Files and RaidedFiles count the namespace.
	Files, RaidedFiles int
	// DataBlocks and ParityBlocks count block records.
	DataBlocks, ParityBlocks int
	// Stripes counts erasure-coding stripes.
	Stripes int
	// LiveMachines counts datanodes answering heartbeats.
	LiveMachines int
	// LogicalBytes is the user data stored; PhysicalBytes what it costs
	// on disk (replicas + parity). Their ratio is the effective storage
	// overhead of the cluster's current hot/cold mix.
	LogicalBytes, PhysicalBytes int64
}

// Stats returns the cluster inventory.
func (c *Cluster) Stats() ClusterStats {
	c.rlockMeta()
	defer c.mu.RUnlock()
	var s ClusterStats
	for _, fm := range c.files {
		s.Files++
		if fm.raided {
			s.RaidedFiles++
		}
		s.LogicalBytes += fm.size
	}
	for _, bm := range c.blocks {
		if bm.file == "" {
			s.ParityBlocks++
		} else {
			s.DataBlocks++
		}
	}
	s.Stripes = len(c.stripes)
	for _, n := range c.nodes {
		if n.isAlive() {
			s.LiveMachines++
		}
	}
	s.PhysicalBytes = c.sumStoredBytes()
	return s
}

// TotalStoredBytes sums the physical bytes held by live and dead
// datanodes — the denominator of storage-overhead measurements.
func (c *Cluster) TotalStoredBytes() int64 {
	return c.sumStoredBytes()
}

func (c *Cluster) sumStoredBytes() int64 {
	var total int64
	for _, n := range c.nodes {
		total += n.storedBytes()
	}
	return total
}

// --- Serving-layer accessors -------------------------------------------
//
// The internal/serve namenode and datanode daemons expose the cluster
// over real TCP. They need read access to block/stripe metadata (to
// answer clients planning reads and degraded-read repairs) and direct
// range reads against a single datanode's store, without reaching into
// unexported state.

// BlockInfo is a client-visible snapshot of one block: identity, size,
// stripe membership, and the machines currently holding live replicas.
type BlockInfo struct {
	ID        BlockID
	Size      int64
	Stripe    StripeID // noStripe (-1) when the block is not striped
	StripePos int
	Locations []int
}

// FileBlocks returns the file's size and a per-block metadata snapshot
// — the read-path handshake of the serving layer. Like ReadFile, it
// counts as an access for the raid policy.
func (c *Cluster) FileBlocks(name string) (int64, []BlockInfo, error) {
	c.rlockMeta()
	defer c.mu.RUnlock()
	fm, ok := c.files[name]
	if !ok {
		return 0, nil, fmt.Errorf("%w: %s", ErrFileNotFound, name)
	}
	fm.lastAccess.Store(int64(c.now))
	out := make([]BlockInfo, len(fm.blocks))
	for i, id := range fm.blocks {
		bm := c.blocks[id]
		out[i] = BlockInfo{
			ID:        bm.id,
			Size:      bm.size,
			Stripe:    bm.stripe,
			StripePos: bm.stripePos,
			Locations: append([]int(nil), c.liveLocations(bm)...),
		}
	}
	return fm.size, out, nil
}

// StripePosInfo describes one stripe position to a repair client: the
// block occupying it (-1 for a phantom zero block of a short tail
// stripe), its logical size, and its live holders.
type StripePosInfo struct {
	Block     BlockID
	Size      int64
	Locations []int
}

// StripeDetail is the full client-visible layout of one stripe.
type StripeDetail struct {
	ID        StripeID
	ShardSize int64
	Positions []StripePosInfo
}

// Stripe returns the layout of one stripe — what a serving-layer
// client needs to execute a degraded read: per-position block ids,
// sizes, and live locations, plus the shard size the codec decodes at.
func (c *Cluster) Stripe(id StripeID) (StripeDetail, error) {
	c.rlockMeta()
	defer c.mu.RUnlock()
	sm, ok := c.stripes[id]
	if !ok {
		return StripeDetail{}, fmt.Errorf("hdfs: stripe %d not found", id)
	}
	d := StripeDetail{ID: sm.id, ShardSize: sm.shardSize, Positions: make([]StripePosInfo, len(sm.blocks))}
	for pos, bid := range sm.blocks {
		if bid < 0 {
			d.Positions[pos] = StripePosInfo{Block: -1, Size: sm.shardSize}
			continue
		}
		bm := c.blocks[bid]
		d.Positions[pos] = StripePosInfo{
			Block:     bm.id,
			Size:      bm.size,
			Locations: append([]int(nil), c.liveLocations(bm)...),
		}
	}
	return d, nil
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

// MachineInventory is what a machine's loss puts at risk: the stripes
// with a block recorded on it and the un-striped replicated blocks
// with a replica recorded on it. Both the node's store and the
// recorded locations survive a machine FAILURE (that is the point:
// the repair manager asks AFTER the failure detector declares the
// machine dead); a DECOMMISSIONED machine is wiped and reports an
// empty inventory — decommissioning is an explicit operator action
// with its own repair sweep, not a detector event.
type MachineInventory struct {
	Stripes    []StripeID
	Replicated []BlockID
}

// MachineInventory returns the machine's inventory, both lists sorted
// ascending. Cost is O(blocks on the machine), not O(cluster blocks):
// the node's own store is the candidate set (stores and recorded
// locations are pruned together on every eviction path, so the store
// can only over-approximate by stale data a repair relocated away —
// filtered by the recorded-locations check).
func (c *Cluster) MachineInventory(m int) MachineInventory {
	if m < 0 || m >= len(c.nodes) {
		return MachineInventory{}
	}
	c.rlockMeta()
	defer c.mu.RUnlock()
	node := c.nodes[m]
	ids, ok := node.blockIDs()
	if !ok {
		// The machine is crashed: its store handle is gone, so the only
		// honest inventory source is namenode metadata. O(cluster
		// blocks) — acceptable for a machine that is down anyway.
		for id, bm := range c.blocks {
			if containsInt(bm.locations, m) {
				ids = append(ids, id)
			}
		}
	}
	var inv MachineInventory
	seen := make(map[StripeID]bool)
	for _, id := range ids {
		bm, ok := c.blocks[id]
		if !ok || !containsInt(bm.locations, m) {
			continue
		}
		if bm.stripe != noStripe {
			if !seen[bm.stripe] {
				seen[bm.stripe] = true
				inv.Stripes = append(inv.Stripes, bm.stripe)
			}
			continue
		}
		inv.Replicated = append(inv.Replicated, bm.id)
	}
	sort.Slice(inv.Stripes, func(i, j int) bool { return inv.Stripes[i] < inv.Stripes[j] })
	slices.Sort(inv.Replicated)
	return inv
}

// BlockInfoByID returns one block's client-visible snapshot by id —
// the repair manager's health registry resolves scrub-affected blocks
// through it. The boolean reports whether the block exists.
func (c *Cluster) BlockInfoByID(id BlockID) (BlockInfo, bool) {
	c.rlockMeta()
	defer c.mu.RUnlock()
	bm, ok := c.blocks[id]
	if !ok {
		return BlockInfo{}, false
	}
	return BlockInfo{
		ID:        bm.id,
		Size:      bm.size,
		Stripe:    bm.stripe,
		StripePos: bm.stripePos,
		Locations: append([]int(nil), c.liveLocations(bm)...),
	}, true
}

// Replication returns the configured replica target for un-striped
// files.
func (c *Cluster) Replication() int { return c.cfg.Replication }

// StripeErasures counts the stripe's real positions with no live
// replica — the quantity the repair manager's health registry tracks
// against the codec's tolerance.
func (c *Cluster) StripeErasures(id StripeID) (int, error) {
	c.rlockMeta()
	defer c.mu.RUnlock()
	sm, ok := c.stripes[id]
	if !ok {
		return 0, fmt.Errorf("hdfs: stripe %d not found", id)
	}
	erasures := 0
	for _, bid := range sm.blocks {
		if bid < 0 {
			continue
		}
		if !c.hasLiveLocation(c.blocks[bid]) {
			erasures++
		}
	}
	return erasures, nil
}

// HealthSummary is a point-in-time availability inventory — the
// quantity "time to full health" is measured against.
type HealthSummary struct {
	// Blocks counts block records examined.
	Blocks int
	// MissingStriped counts striped blocks with no live replica, and
	// DegradedStripes the stripes containing at least one of them.
	MissingStriped  int
	DegradedStripes int
	// UnderReplicated counts un-striped blocks below the replication
	// target with at least one live replica; LostReplicated those with
	// none (unrecoverable without a stripe).
	UnderReplicated int
	LostReplicated  int
}

// Healthy reports full health: every striped block has a live replica
// and every replicated block sits at its target replication.
func (h HealthSummary) Healthy() bool {
	return h.MissingStriped == 0 && h.UnderReplicated == 0 && h.LostReplicated == 0
}

// Health computes the availability summary.
func (c *Cluster) Health() HealthSummary {
	c.rlockMeta()
	defer c.mu.RUnlock()
	var h HealthSummary
	degraded := make(map[StripeID]bool)
	for _, bm := range c.blocks {
		h.Blocks++
		live := len(c.liveLocations(bm))
		if bm.stripe != noStripe {
			if live == 0 {
				h.MissingStriped++
				degraded[bm.stripe] = true
			}
			continue
		}
		switch {
		case live == 0:
			h.LostReplicated++
		case live < c.cfg.Replication:
			h.UnderReplicated++
		}
	}
	h.DegradedStripes = len(degraded)
	return h
}

// NodeReadRangeInto serves a range read of one replica directly from
// one datanode's store — the serving layer's datanode daemons answer
// range reads with it, touching only the node's leaf lock, never the
// namenode metadata. Reads past the block's physical end are
// zero-padded, exactly as readRange pads striped blocks to the shard
// size. The bytes land in buf when its capacity holds the block's
// padded size (the result is then a view of buf, which the caller may
// recycle once done with the result); a smaller or nil buf allocates.
func (c *Cluster) NodeReadRangeInto(machine int, id BlockID, offset, length int64, buf []byte) ([]byte, error) {
	if machine < 0 || machine >= len(c.nodes) {
		return nil, fmt.Errorf("hdfs: no machine %d", machine)
	}
	return c.nodes[machine].readRangeInto(id, offset, length, buf)
}
