// The namespace of the one metadata shard: the metadata lock and its
// contention counters, the placement rng, and the read-only lookups and
// summaries the serving and repair layers ask for. Writes and raiding
// are in files.go, the BlockFixer in fixer.go, the raid policy and the
// replica verifier in raidnode.go.
package hdfs

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
)

// lockMeta / rlockMeta acquire the metadata mutex, charging the wait
// to the lock-contention counters LockStats reports. EVERY
// metadata-mutex acquisition goes through them — repolint's
// lockdiscipline analyzer enforces it.
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
// acquisitions that covers.
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

// liveLocations returns the datanodes that are alive and hold the block,
// in a slice built for this call: it is the caller's to keep or hand on,
// and shares nothing with the block's metadata.
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
// CRC-32, stripe membership, and the machines currently holding live
// replicas.
type BlockInfo struct {
	ID        BlockID
	Size      int64
	Checksum  uint32   // CRC-32 (IEEE) of the block's bytes, recorded when it was written
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
			Checksum:  bm.checksum,
			Stripe:    bm.stripe,
			StripePos: bm.stripePos,
			Locations: c.liveLocations(bm),
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

// alive reports whether the snapshot can serve position pos: a phantom
// zero block always can, a real block needs a listed holder. It is the
// AliveFunc every repair of the stripe plans from.
func (d StripeDetail) alive(pos int) bool {
	if pos < 0 || pos >= len(d.Positions) {
		return false
	}
	p := d.Positions[pos]
	return p.Block < 0 || len(p.Locations) > 0
}

// Stripe returns the layout of one stripe — what a serving-layer
// client needs to execute a degraded read: per-position block ids,
// sizes, and live locations, plus the shard size the codec decodes at.
// It is the same snapshot every in-process repair decodes from
// (stripeDetailLocked).
func (c *Cluster) Stripe(id StripeID) (StripeDetail, error) {
	c.rlockMeta()
	defer c.mu.RUnlock()
	sm, ok := c.stripes[id]
	if !ok {
		return StripeDetail{}, fmt.Errorf("hdfs: stripe %d not found", id)
	}
	return c.stripeDetailLocked(sm), nil
}

// stripeDetailLocked snapshots one stripe: per position its block, size
// and live holders, in slices built for this call. A repair plans and
// decodes from the snapshot alone, so its decode reads no metadata and
// takes no metadata lock; a holder that dies after the snapshot fails
// its fetch with ErrNodeDown. Callers hold c.mu in at least read mode.
func (c *Cluster) stripeDetailLocked(sm *stripeMeta) StripeDetail {
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
			Locations: c.liveLocations(bm),
		}
	}
	return d
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
	ids, ok := c.nodes[m].blockIDs()
	if !ok {
		// The machine is crashed: its store handle is gone, so the only
		// honest inventory source is namenode metadata. O(cluster
		// blocks) — acceptable for a machine that is down anyway.
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
// the repair manager re-examines a queued replicated block, and
// resolves a block whose replica a report evicted to its stripe,
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
		Locations: c.liveLocations(bm),
	}, true
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

// recordedOnLocked lists, unsorted, the blocks the metadata records a
// replica of on the machine. O(cluster blocks). Callers hold c.mu in at
// least read mode.
func (c *Cluster) recordedOnLocked(machine int) []BlockID {
	var out []BlockID
	for id, bm := range c.blocks {
		if containsInt(bm.locations, machine) {
			out = append(out, id)
		}
	}
	return out
}
