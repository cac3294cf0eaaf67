// One metadata shard: the files routed to it, their blocks and stripes,
// the locks and rng that serialise on them, and the read-only lookups
// and summaries of MetadataView. Writes and raiding are in files.go,
// the BlockFixer (RepairOps) in fixer.go, the raid policy and scrubber
// in raidnode.go.
package hdfs

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
)

// metaShard is one metadata shard of a Cluster: the files routed to it,
// their blocks and stripes, and everything that serialises on them — a
// metadata lock, a placement rng, a fixer pass, a scrubber cursor. It
// owns no bytes: block I/O goes to the shared physical plane.
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
type metaShard struct {
	*physical
	eng *engine.Engine

	// idStride spaces block and stripe id allocation: shard i of n mints
	// ids congruent to i modulo n — the routing rule for id-addressed
	// operations — so a one-shard plane allocates densely (base 0,
	// stride 1).
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

// shardSeedStride decorrelates the shards' placement streams while
// keeping each a pure function of (Seed, shard index), and shard 0's the
// stream of Seed itself.
const shardSeedStride = 0x9E3779B9

// newShard builds metadata shard base of stride over the physical plane,
// allocating block/stripe ids from base with the given stride.
func newShard(phys *physical, base, stride int64) *metaShard {
	cfg := phys.cfg
	c := &metaShard{
		physical:   phys,
		eng:        engine.New(engine.Options{Parallelism: cfg.RepairParallelism, Telemetry: cfg.Telemetry}),
		idStride:   stride,
		rng:        rand.New(rand.NewSource(cfg.Seed + base*shardSeedStride)),
		files:      make(map[string]*fileMeta),
		blocks:     make(map[BlockID]*blockMeta),
		stripes:    make(map[StripeID]*stripeMeta),
		nextBlock:  BlockID(base),
		nextStripe: StripeID(base),
	}
	if reg := cfg.Telemetry; reg != nil {
		// base is the shard's index, so it doubles as the shard label.
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
func (c *metaShard) lockMeta() {
	t := time.Now()
	c.mu.Lock()
	c.lockWaitNanos.Add(int64(time.Since(t)))
	c.metaOps.Add(1)
}

func (c *metaShard) rlockMeta() {
	t := time.Now()
	c.mu.RLock()
	c.lockWaitNanos.Add(int64(time.Since(t)))
	c.metaOps.Add(1)
}

// locked runs a machine-state change of the physical plane under this
// shard's metadata lock, so it serialises against the shard's mutations
// that check liveness and then act on it (placement during WriteFile,
// fixer planning and application).
func (c *metaShard) locked(change func() error) error {
	c.lockMeta()
	defer c.mu.Unlock()
	return change()
}

// LockStats is the metadata-lock contention summary: how long serving
// operations waited to acquire the metadata lock, and how many
// acquisitions that covers. A Cluster reports the sum across its
// shards.
type LockStats struct {
	// WaitNanos is cumulative time spent blocked acquiring the
	// metadata lock (read + write mode) on the instrumented paths.
	WaitNanos int64
	// Acquisitions counts the instrumented acquisitions.
	Acquisitions int64
}

// LockStats returns the cumulative metadata-lock contention counters.
func (c *metaShard) LockStats() LockStats {
	return LockStats{WaitNanos: c.lockWaitNanos.Load(), Acquisitions: c.metaOps.Load()}
}

// randIntn draws from the placement rng under its own mutex, so both
// read paths (replica choice) and write paths (placement) share one
// deterministic stream.
func (c *metaShard) randIntn(n int) int {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.rng.Intn(n)
}

// placeStripe draws a rack-disjoint placement from the shared rng.
func (c *metaShard) placeStripe(n int) ([]int, error) {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return cluster.PlaceStripe(c.rng, c.cfg.Topology, n)
}

// pickReplacement draws a replacement machine from the shared rng.
func (c *metaShard) pickReplacement(excludeRacks map[int]bool) (int, error) {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return cluster.PickReplacement(c.rng, c.cfg.Topology, excludeRacks)
}

// pickReplica returns a random live holder so read load spreads across
// replicas instead of always hammering the first recorded location.
// The draw comes from the cluster's seeded rng: deterministic for a
// fixed seed under serial use.
func (c *metaShard) pickReplica(live []int) int {
	if len(live) == 1 {
		return live[0]
	}
	return live[c.randIntn(len(live))]
}

// liveLocations returns the datanodes that are alive and hold the block.
func (c *metaShard) liveLocations(bm *blockMeta) []int {
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
func (c *metaShard) hasLiveLocation(bm *blockMeta) bool {
	for _, m := range bm.locations {
		if c.nodes[m].isAlive() && c.nodes[m].has(bm.id) {
			return true
		}
	}
	return false
}

// FileInfo is a snapshot of one file's metadata.
type FileInfo struct {
	Name   string
	Size   int64
	Blocks int
	Raided bool
}

// Stat returns a file's metadata.
func (c *metaShard) Stat(name string) (FileInfo, error) {
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
func (c *metaShard) BlockLocations(name string) ([][]int, error) {
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
func (c *metaShard) StripeOf(name string, blockIndex int) (StripeID, int, error) {
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
func (c *metaShard) StripeRacks(id StripeID) ([]int, error) {
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
func (c *metaShard) Stats() ClusterStats {
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
	s.PhysicalBytes = c.TotalStoredBytes()
	return s
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
func (c *metaShard) FileBlocks(name string) (int64, []BlockInfo, error) {
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
func (c *metaShard) Stripe(id StripeID) (StripeDetail, error) {
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
func (c *metaShard) MachineInventory(m int) MachineInventory {
	if m < 0 || m >= len(c.nodes) {
		return MachineInventory{}
	}
	c.rlockMeta()
	defer c.mu.RUnlock()
	ids, ok := c.nodes[m].blockIDs()
	if !ok {
		// The machine is crashed: its store handle is gone, so the only
		// honest inventory source is namenode metadata. O(shard blocks)
		// — acceptable for a machine that is down anyway.
		ids = c.recordedOnLocked(m)
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
func (c *metaShard) BlockInfoByID(id BlockID) (BlockInfo, bool) {
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

// StripeErasures counts the stripe's real positions with no live
// replica — the quantity the repair manager's health registry tracks
// against the codec's tolerance.
func (c *metaShard) StripeErasures(id StripeID) (int, error) {
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
func (c *metaShard) Health() HealthSummary {
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

// recordedOnLocked lists, unsorted, the blocks this shard's metadata
// records a replica of on the machine. O(shard blocks). Callers hold
// c.mu in at least read mode.
func (c *metaShard) recordedOnLocked(machine int) []BlockID {
	var out []BlockID
	for id, bm := range c.blocks {
		if containsInt(bm.locations, machine) {
			out = append(out, id)
		}
	}
	return out
}

// BlocksOn returns the ids of this shard's blocks with a replica
// recorded on the machine, sorted ascending — like MachineInventory, a
// shard answers for what it owns, whether or not the machine is up.
func (c *metaShard) BlocksOn(machine int) []BlockID {
	c.rlockMeta()
	defer c.mu.RUnlock()
	out := c.recordedOnLocked(machine)
	slices.Sort(out)
	return out
}
