// The metadata plane: a Cluster is N >= 1 independent metadata shards
// over one physical plane.
//
// File → stripe metadata is partitioned in the shape of production
// sharded namenodes (HDFS federation, cubeFS meta-partitions): every
// shard owns its own metadata RWMutex, placement rng, fixer pass,
// scrubber cursor — so operations on unrelated files never contend —
// while all shards share ONE physical plane: the datanode stores and
// the cross-rack traffic fabric, because machines and racks are not
// shardable. One shard is the paper's cluster (§2.1: one namenode, one
// RaidNode, one BlockFixer); it runs the same code as four.
//
// Routing rules:
//
//   - Files route by seeded consistent hash of their parent directory
//     (the name up to the last '/'; the whole name when there is none)
//     — Lamping-Veach jump hash over FNV-1a, mixed with Config.Seed.
//     Subtree routing keeps a directory shard-local, so a job's burst
//     of lookups and part-file writes against one dataset lands on one
//     shard instead of fanning its lock footprint across all of them.
//     The assignment depends only on (key, seed, shard count), so it is
//     stable across restarts that preserve the shard count.
//   - Block and stripe ids route arithmetically: shard i mints ids
//     congruent to i modulo the shard count (interleaved allocation via
//     metaShard.idStride), so ShardOfBlock/ShardOfStripe is id mod N
//     with no lookup and no shared allocator lock.
//   - Machine-scoped operations (failure, restore, decommission,
//     inventory, scrub) reach every shard — a machine death touches
//     stripes in all of them — and merge the per-shard results.
//
// Cross-shard fixer passes run the shards' passes in parallel and
// report cross-rack traffic as ONE delta measured around the whole
// fan-out: the fabric is shared, so summing per-shard deltas would
// double-count bytes moved while two shards' passes overlap.
package hdfs

import (
	"repro/internal/cluster"
	"slices"
	"sort"
	"sync"
	"time"
)

// Cluster is the miniature DFS: Config.Shards metadata shards (at least
// one) over one physical plane of datanodes and network fabric. It is
// the only metadata plane; consumers above this package hold it as
// Metadata.
type Cluster struct {
	*physical
	shards []*metaShard

	// fixerMu serialises cross-shard fixer passes against each other so
	// the outer CrossRackBytes delta of one merged report never
	// includes another pass's traffic. Per-shard passes inside one
	// merged pass still run in parallel.
	fixerMu sync.Mutex
}

// New builds an empty cluster of max(cfg.Shards, 1) metadata shards.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net, err := cluster.NewNetwork(cfg.Topology)
	if err != nil {
		return nil, err
	}
	nodes, err := newDataNodes(cfg)
	if err != nil {
		return nil, err
	}
	phys := &physical{cfg: cfg, net: net, nodes: nodes}
	n := max(cfg.Shards, 1)
	shards := make([]*metaShard, n)
	for i := range shards {
		shards[i] = newShard(phys, int64(i), int64(n))
	}
	return &Cluster{physical: phys, shards: shards}, nil
}

// shardKey reduces a file name to its routing key: the parent
// directory (up to the last '/'), or the whole name for top-level
// files. Hashing the directory instead of the full path makes subtrees
// shard-local.
func shardKey(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			return name[:i]
		}
	}
	return name
}

// fnv64a is the FNV-1a hash of the routing key — the stable input the
// consistent hash routes on.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// jumpHash is the Lamping-Veach jump consistent hash: maps key to a
// bucket in [0, buckets) such that growing the bucket count moves only
// ~1/buckets of the keys.
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// ShardOf returns the shard index owning the file name (routed by its
// parent directory, see shardKey).
func (c *Cluster) ShardOf(name string) int {
	return jumpHash(fnv64a(shardKey(name))^uint64(c.cfg.Seed)*0x9E3779B97F4A7C15, len(c.shards))
}

// ShardOfStripe returns the shard index that minted the stripe id.
func (c *Cluster) ShardOfStripe(id StripeID) int { return c.shardOfID(int64(id)) }

// ShardOfBlock returns the shard index that minted the block id.
func (c *Cluster) ShardOfBlock(id BlockID) int { return c.shardOfID(int64(id)) }

// shardOfID is the strided-allocation rule read backwards: id mod N.
func (c *Cluster) shardOfID(id int64) int {
	n := int64(len(c.shards))
	return int(((id % n) + n) % n)
}

// Shard returns shard i's read and repair surface. Callers must only
// hand it names and ids it owns — the repair manager's per-shard lanes
// use it.
func (c *Cluster) Shard(i int) interface {
	MetadataView
	RepairOps
} {
	return c.shards[i]
}

// byName routes a file-keyed operation.
func (c *Cluster) byName(name string) *metaShard { return c.shards[c.ShardOf(name)] }

// --- File-keyed operations (single shard) ------------------------------

// WriteFile stores a new replicated file on the shard owning the name.
func (c *Cluster) WriteFile(name string, data []byte) error {
	return c.byName(name).WriteFile(name, data)
}

// ReadFile reads a file from the shard owning the name.
func (c *Cluster) ReadFile(name string) ([]byte, error) {
	return c.byName(name).ReadFile(name)
}

// RaidFile erasure-codes the file on the shard owning the name.
func (c *Cluster) RaidFile(name string) error {
	return c.byName(name).RaidFile(name)
}

// Stat returns a file's metadata.
func (c *Cluster) Stat(name string) (FileInfo, error) {
	return c.byName(name).Stat(name)
}

// FileBlocks returns the file's size and per-block snapshots.
func (c *Cluster) FileBlocks(name string) (int64, []BlockInfo, error) {
	return c.byName(name).FileBlocks(name)
}

// BlockLocations returns per-block live replica locations.
func (c *Cluster) BlockLocations(name string) ([][]int, error) {
	return c.byName(name).BlockLocations(name)
}

// StripeOf maps a file block to its stripe id and position.
func (c *Cluster) StripeOf(name string, blockIndex int) (StripeID, int, error) {
	return c.byName(name).StripeOf(name, blockIndex)
}

// --- Id-keyed operations (single shard, arithmetic routing) ------------

// Stripe returns one stripe's layout.
func (c *Cluster) Stripe(id StripeID) (StripeDetail, error) {
	return c.shards[c.ShardOfStripe(id)].Stripe(id)
}

// StripeRacks returns the racks hosting live blocks of the stripe.
func (c *Cluster) StripeRacks(id StripeID) ([]int, error) {
	return c.shards[c.ShardOfStripe(id)].StripeRacks(id)
}

// StripeErasures counts stripe positions with no live replica.
func (c *Cluster) StripeErasures(id StripeID) (int, error) {
	return c.shards[c.ShardOfStripe(id)].StripeErasures(id)
}

// BlockInfoByID resolves one block's snapshot by id.
func (c *Cluster) BlockInfoByID(id BlockID) (BlockInfo, bool) {
	return c.shards[c.ShardOfBlock(id)].BlockInfoByID(id)
}

// InjectBitRot flips one byte of a stored replica.
func (c *Cluster) InjectBitRot(machine int, id BlockID, offset int64) error {
	return c.shards[c.ShardOfBlock(id)].InjectBitRot(machine, id, offset)
}

// --- Machine-scoped operations (every shard) ------------------------------

// BlocksOn lists block ids with a replica on the machine, sorted
// ascending: the node's own index while its store is open, and once the
// store is crashed — the repair control plane asks exactly this about
// machines that just died (grace-window repair estimates) — what every
// shard's metadata records on it.
func (c *Cluster) BlocksOn(machine int) []BlockID {
	out, ok := c.nodes[machine].blockIDs()
	if !ok {
		for _, sh := range c.shards {
			out = append(out, sh.BlocksOn(machine)...)
		}
	}
	slices.Sort(out)
	return out
}

// MachineInventory fans out and merges: each shard reports the stripes
// and replicated blocks IT holds metadata for on the machine.
func (c *Cluster) MachineInventory(m int) MachineInventory {
	var inv MachineInventory
	for _, sh := range c.shards {
		part := sh.MachineInventory(m)
		inv.Stripes = append(inv.Stripes, part.Stripes...)
		inv.Replicated = append(inv.Replicated, part.Replicated...)
	}
	sort.Slice(inv.Stripes, func(i, j int) bool { return inv.Stripes[i] < inv.Stripes[j] })
	slices.Sort(inv.Replicated)
	return inv
}

// --- Clock and raid policy (fan-out) -----------------------------------

// AdvanceClock moves every shard's logical clock by d.
func (c *Cluster) AdvanceClock(d time.Duration) {
	for _, sh := range c.shards {
		sh.AdvanceClock(d)
	}
}

// Now reads the logical clock (all shards advance in lockstep).
func (c *Cluster) Now() time.Duration { return c.shards[0].Now() }

// RaidCandidates merges every shard's policy candidates, sorted by
// name.
func (c *Cluster) RaidCandidates(policy RaidPolicy) []string {
	var out []string
	for _, sh := range c.shards {
		out = append(out, sh.RaidCandidates(policy)...)
	}
	sort.Strings(out)
	return out
}

// RunRaidNode applies the policy: every cold file is erasure-coded and
// its extra replicas dropped, exactly as the production RaidNode does
// for data older than three months. Shards run sequentially — the pass
// is an admin sweep, not a latency path — and the report's byte deltas
// are measured once around the whole sweep because the store and fabric
// are shared.
func (c *Cluster) RunRaidNode(policy RaidPolicy) (*RaidReport, error) {
	report := &RaidReport{}
	before := c.TotalStoredBytes()
	netBefore := c.net.CrossRackBytes()
	for _, sh := range c.shards {
		if err := sh.raidCold(policy, report); err != nil {
			return report, err
		}
	}
	report.StorageReclaimedBytes = before - c.TotalStoredBytes()
	report.CrossRackBytes = c.net.CrossRackBytes() - netBefore
	return report, nil
}

// --- Repair control plane (parallel fan-out, merged reports) -----------

// mergeFixInto folds one shard's fix report into the merged report.
// CrossRackBytes is deliberately NOT summed — the caller measures one
// outer delta on the shared fabric (see the package comment).
func mergeFixInto(dst, part *FixReport) {
	if part == nil {
		return
	}
	dst.ScannedBlocks += part.ScannedBlocks
	dst.RepairedStriped += part.RepairedStriped
	dst.ReReplicated += part.ReReplicated
	dst.Unrecoverable = append(dst.Unrecoverable, part.Unrecoverable...)
}

// fanOutFix runs one fixer-style call per shard in parallel and merges
// the reports under a single outer traffic delta.
func (c *Cluster) fanOutFix(run func(i int, sh *metaShard) (*FixReport, error)) (*FixReport, error) {
	c.fixerMu.Lock()
	defer c.fixerMu.Unlock()
	netBefore := c.net.CrossRackBytes()
	parts := make([]*FixReport, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *metaShard) {
			defer wg.Done()
			parts[i], errs[i] = run(i, sh)
		}(i, sh)
	}
	wg.Wait()
	report := &FixReport{}
	for _, part := range parts {
		mergeFixInto(report, part)
	}
	slices.Sort(report.Unrecoverable)
	report.CrossRackBytes = c.net.CrossRackBytes() - netBefore
	for _, err := range errs {
		if err != nil {
			return report, err
		}
	}
	return report, nil
}

// RunBlockFixer runs every shard's fixer pass in parallel and merges
// the reports.
func (c *Cluster) RunBlockFixer() (*FixReport, error) {
	return c.fanOutFix(func(_ int, sh *metaShard) (*FixReport, error) { return sh.RunBlockFixer() })
}

// idsByShard groups block or stripe ids by the shard that minted them.
func idsByShard[ID ~int64](c *Cluster, ids []ID) [][]ID {
	groups := make([][]ID, len(c.shards))
	for _, id := range ids {
		i := c.shardOfID(int64(id))
		groups[i] = append(groups[i], id)
	}
	return groups
}

// FixStripes groups the stripes by owning shard and repairs each
// group on its shard, in parallel.
func (c *Cluster) FixStripes(ids []StripeID) (*FixReport, error) {
	groups := idsByShard(c, ids)
	return c.fanOutFix(func(i int, sh *metaShard) (*FixReport, error) {
		if len(groups[i]) == 0 {
			return nil, nil
		}
		return sh.FixStripes(groups[i])
	})
}

// ReReplicateBlocks groups the blocks by owning shard and restores
// replication on each shard, in parallel.
func (c *Cluster) ReReplicateBlocks(ids []BlockID) (*FixReport, error) {
	groups := idsByShard(c, ids)
	return c.fanOutFix(func(i int, sh *metaShard) (*FixReport, error) {
		if len(groups[i]) == 0 {
			return nil, nil
		}
		return sh.ReReplicateBlocks(groups[i])
	})
}

// RunScrubberSlice advances every shard's scrub cursor over the same
// machines-sized slice, in turn, and merges what they found. The shared
// store is scanned once per shard, each shard checking only blocks it
// owns. Cursor fields come from shard 0: every shard advances its
// cursor over the same slice, so the cursors stay aligned.
func (c *Cluster) RunScrubberSlice(machines int) (*ScrubReport, error) {
	report := &ScrubReport{}
	for i, sh := range c.shards {
		part, err := sh.RunScrubberSlice(machines)
		if err != nil {
			return nil, err
		}
		report.ScannedReplicas += part.ScannedReplicas
		report.CorruptReplicas += part.CorruptReplicas
		report.AffectedBlocks = append(report.AffectedBlocks, part.AffectedBlocks...)
		if i == 0 {
			report.Resumed = part.Resumed
			report.MachinesScanned = part.MachinesScanned
			report.NextMachine = part.NextMachine
		}
	}
	slices.Sort(report.AffectedBlocks)
	return report, nil
}

// --- Merged summaries --------------------------------------------------

// Stats merges the shards' metadata inventories; the physical columns
// (LiveMachines, PhysicalBytes) are global and taken once.
func (c *Cluster) Stats() ClusterStats {
	var out ClusterStats
	for i, sh := range c.shards {
		part := sh.Stats()
		out.Files += part.Files
		out.RaidedFiles += part.RaidedFiles
		out.DataBlocks += part.DataBlocks
		out.ParityBlocks += part.ParityBlocks
		out.Stripes += part.Stripes
		out.LogicalBytes += part.LogicalBytes
		if i == 0 {
			out.LiveMachines = part.LiveMachines
			out.PhysicalBytes = part.PhysicalBytes
		}
	}
	return out
}

// Health sums the shards' availability summaries (their block sets are
// disjoint).
func (c *Cluster) Health() HealthSummary {
	var out HealthSummary
	for _, sh := range c.shards {
		part := sh.Health()
		out.Blocks += part.Blocks
		out.MissingStriped += part.MissingStriped
		out.DegradedStripes += part.DegradedStripes
		out.UnderReplicated += part.UnderReplicated
		out.LostReplicated += part.LostReplicated
	}
	return out
}

// LockStats sums lock-contention counters across shards.
func (c *Cluster) LockStats() LockStats {
	var out LockStats
	for _, sh := range c.shards {
		part := sh.LockStats()
		out.WaitNanos += part.WaitNanos
		out.Acquisitions += part.Acquisitions
	}
	return out
}
