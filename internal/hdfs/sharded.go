// Sharded metadata plane.
//
// A ShardedCluster partitions file → stripe metadata into N independent
// Cluster shards in the shape of production sharded namenodes (HDFS
// federation, cubeFS meta-partitions): every shard owns its own
// metadata RWMutex, placement rng, fixer pass, scrubber cursor — so
// operations on unrelated files never contend — while all shards share
// ONE physical plane: the datanode stores and the cross-rack traffic
// fabric, because machines and racks are not shardable.
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
//     Cluster.idStride), so ShardOfBlock/ShardOfStripe is id mod N with
//     no lookup and no shared allocator lock.
//   - Machine-scoped operations (failure, restore, decommission,
//     inventory, scrub) fan out to every shard — a machine death
//     touches stripes in all of them — and merge the per-shard results.
//
// Cross-shard fixer passes run the shards' passes in parallel and
// report cross-rack traffic as ONE delta measured around the whole
// fan-out: the fabric is shared, so summing per-shard deltas would
// double-count bytes moved while two shards' passes overlap.
package hdfs

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/ec"
)

// ShardedCluster is a metadata plane of Config.Shards independent
// Cluster shards over one shared physical cluster. It satisfies the
// same Metadata interface as Cluster; callers obtain one through
// hdfs.Open (or NewSharded) and never need to know which they hold.
type ShardedCluster struct {
	cfg    Config
	net    *cluster.Network
	nodes  []*dataNode
	shards []*Cluster

	// fixerMu serialises cross-shard fixer passes against each other so
	// the outer CrossRackBytes delta of one merged report never
	// includes another pass's traffic. Per-shard passes inside one
	// merged pass still run in parallel.
	fixerMu sync.Mutex
}

// NewSharded builds a sharded metadata plane with cfg.Shards shards
// (at least 2; use New or Open for a single shard).
func NewSharded(cfg Config, opts ...Option) (*ShardedCluster, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards < 2 {
		return nil, fmt.Errorf("hdfs: NewSharded needs Shards >= 2, got %d (use New)", cfg.Shards)
	}
	net, err := cluster.NewNetwork(cfg.Topology)
	if err != nil {
		return nil, err
	}
	nodes, err := newDataNodes(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.Shards
	shards := make([]*Cluster, n)
	for i := range shards {
		shardCfg := cfg
		// Decorrelate per-shard placement streams while keeping them a
		// pure function of (Seed, shard index) for restart stability.
		shardCfg.Seed = cfg.Seed*0x9E3779B9 + int64(i)
		shards[i] = newShard(shardCfg, net, nodes, int64(i), int64(n))
	}
	return &ShardedCluster{cfg: cfg, net: net, nodes: nodes, shards: shards}, nil
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
func (s *ShardedCluster) Shards() int { return len(s.shards) }

// ShardOf returns the shard index owning the file name (routed by its
// parent directory, see shardKey).
func (s *ShardedCluster) ShardOf(name string) int {
	return jumpHash(fnv64a(shardKey(name))^uint64(s.cfg.Seed)*0x9E3779B97F4A7C15, len(s.shards))
}

// ShardOfStripe returns the shard index that minted the stripe id.
func (s *ShardedCluster) ShardOfStripe(id StripeID) int {
	n := int64(len(s.shards))
	return int(((int64(id) % n) + n) % n)
}

// ShardOfBlock returns the shard index that minted the block id.
func (s *ShardedCluster) ShardOfBlock(id BlockID) int {
	n := int64(len(s.shards))
	return int(((int64(id) % n) + n) % n)
}

// Shard returns shard i as a Metadata plane of its own. Callers must
// only hand it names and ids it owns — the per-shard fixer/manager
// loops of the serving layer use it.
func (s *ShardedCluster) Shard(i int) Metadata { return s.shards[i] }

// byName routes a file-keyed operation.
func (s *ShardedCluster) byName(name string) *Cluster { return s.shards[s.ShardOf(name)] }

// --- File-keyed operations (single shard) ------------------------------

// WriteFile stores a new replicated file on the shard owning the name.
func (s *ShardedCluster) WriteFile(name string, data []byte) error {
	return s.byName(name).WriteFile(name, data)
}

// ReadFile reads a file from the shard owning the name.
func (s *ShardedCluster) ReadFile(name string) ([]byte, error) {
	return s.byName(name).ReadFile(name)
}

// RaidFile erasure-codes the file on the shard owning the name.
func (s *ShardedCluster) RaidFile(name string) error {
	return s.byName(name).RaidFile(name)
}

// Stat returns a file's metadata.
func (s *ShardedCluster) Stat(name string) (FileInfo, error) {
	return s.byName(name).Stat(name)
}

// FileBlocks returns the file's size and per-block snapshots.
func (s *ShardedCluster) FileBlocks(name string) (int64, []BlockInfo, error) {
	return s.byName(name).FileBlocks(name)
}

// BlockLocations returns per-block live replica locations.
func (s *ShardedCluster) BlockLocations(name string) ([][]int, error) {
	return s.byName(name).BlockLocations(name)
}

// StripeOf maps a file block to its stripe id and position.
func (s *ShardedCluster) StripeOf(name string, blockIndex int) (StripeID, int, error) {
	return s.byName(name).StripeOf(name, blockIndex)
}

// --- Id-keyed operations (single shard, arithmetic routing) ------------

// Stripe returns one stripe's layout.
func (s *ShardedCluster) Stripe(id StripeID) (StripeDetail, error) {
	return s.shards[s.ShardOfStripe(id)].Stripe(id)
}

// StripeRacks returns the racks hosting live blocks of the stripe.
func (s *ShardedCluster) StripeRacks(id StripeID) ([]int, error) {
	return s.shards[s.ShardOfStripe(id)].StripeRacks(id)
}

// StripeErasures counts stripe positions with no live replica.
func (s *ShardedCluster) StripeErasures(id StripeID) (int, error) {
	return s.shards[s.ShardOfStripe(id)].StripeErasures(id)
}

// BlockInfoByID resolves one block's snapshot by id.
func (s *ShardedCluster) BlockInfoByID(id BlockID) (BlockInfo, bool) {
	return s.shards[s.ShardOfBlock(id)].BlockInfoByID(id)
}

// InjectBitRot flips one byte of a stored replica.
func (s *ShardedCluster) InjectBitRot(machine int, id BlockID, offset int64) error {
	return s.shards[s.ShardOfBlock(id)].InjectBitRot(machine, id, offset)
}

// --- Physical-plane accessors (shared; any shard answers) --------------

// Machines returns the machine count.
func (s *ShardedCluster) Machines() int { return len(s.nodes) }

// Topology returns the rack/machine layout.
func (s *ShardedCluster) Topology() cluster.Topology { return s.cfg.Topology }

// BlockSize returns the configured block payload bound.
func (s *ShardedCluster) BlockSize() int64 { return s.cfg.BlockSize }

// Replication returns the un-raided replica count.
func (s *ShardedCluster) Replication() int { return s.cfg.Replication }

// Code returns the erasure codec.
func (s *ShardedCluster) Code() ec.Code { return s.cfg.Code }

// Network returns the shared cross-rack traffic fabric.
func (s *ShardedCluster) Network() *cluster.Network { return s.net }

// MachineAlive reports liveness of one (shared) machine.
func (s *ShardedCluster) MachineAlive(id int) bool { return s.shards[0].MachineAlive(id) }

// NodeReadRangeInto serves a range read directly from the shared
// datanode store, touching no shard's metadata lock.
func (s *ShardedCluster) NodeReadRangeInto(machine int, id BlockID, offset, length int64, buf []byte) ([]byte, error) {
	return s.shards[0].NodeReadRangeInto(machine, id, offset, length, buf)
}

// BlocksOn lists block ids with a replica on the machine. The store is
// shared, so one shard sees every shard's blocks.
func (s *ShardedCluster) BlocksOn(machine int) []BlockID { return s.shards[0].BlocksOn(machine) }

// TotalStoredBytes sums physical bytes over the shared stores.
func (s *ShardedCluster) TotalStoredBytes() int64 { return s.shards[0].TotalStoredBytes() }

// --- Machine lifecycle (fan-out) ---------------------------------------

// FailMachine marks a machine dead in every shard's view, taking each
// shard's metadata lock in turn. The datanode is shared, so the first
// of those already fails it for all: a write or raid running under a
// later shard's lock can pass its liveness check and then find the
// machine down at store time, and re-places that replica
// (Cluster.storePlacedLocked) rather than failing.
func (s *ShardedCluster) FailMachine(id int) {
	for _, sh := range s.shards {
		sh.FailMachine(id)
	}
}

// RestoreMachine revives a machine in every shard's view.
func (s *ShardedCluster) RestoreMachine(id int) {
	for _, sh := range s.shards {
		sh.RestoreMachine(id)
	}
}

// CrashMachine fails the machine in every shard's view, then closes
// the SHARED physical store exactly once.
func (s *ShardedCluster) CrashMachine(id int) error {
	if id < 0 || id >= len(s.nodes) {
		return fmt.Errorf("hdfs: no machine %d", id)
	}
	for _, sh := range s.shards {
		sh.FailMachine(id)
	}
	return s.nodes[id].crash()
}

// RecoverMachine reopens the shared store once, then revives the
// machine in every shard's view.
func (s *ShardedCluster) RecoverMachine(id int) error {
	if id < 0 || id >= len(s.nodes) {
		return fmt.Errorf("hdfs: no machine %d", id)
	}
	if err := s.nodes[id].recover(); err != nil {
		return err
	}
	for _, sh := range s.shards {
		sh.RestoreMachine(id)
	}
	return nil
}

// DecommissionMachine wipes and kills a machine in every shard's view
// (the wipe of the shared store is idempotent).
func (s *ShardedCluster) DecommissionMachine(id int) {
	for _, sh := range s.shards {
		sh.DecommissionMachine(id)
	}
}

// Close releases the shared datanode stores (once — not per shard).
func (s *ShardedCluster) Close() error {
	var first error
	for _, n := range s.nodes {
		n.mu.Lock()
		err := n.store.Close()
		n.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MachineInventory fans out and merges: each shard reports the stripes
// and replicated blocks IT holds metadata for on the machine.
func (s *ShardedCluster) MachineInventory(m int) MachineInventory {
	var inv MachineInventory
	for _, sh := range s.shards {
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
func (s *ShardedCluster) AdvanceClock(d time.Duration) {
	for _, sh := range s.shards {
		sh.AdvanceClock(d)
	}
}

// Now reads the logical clock (all shards advance in lockstep).
func (s *ShardedCluster) Now() time.Duration { return s.shards[0].Now() }

// RaidCandidates merges every shard's policy candidates, sorted by
// name.
func (s *ShardedCluster) RaidCandidates(policy RaidPolicy) []string {
	var out []string
	for _, sh := range s.shards {
		out = append(out, sh.RaidCandidates(policy)...)
	}
	sort.Strings(out)
	return out
}

// RunRaidNode raids every shard's cold files. Shards run sequentially
// — the pass is an admin sweep, not a latency path — and the report's
// byte deltas are measured once around the whole sweep because the
// store and fabric are shared.
func (s *ShardedCluster) RunRaidNode(policy RaidPolicy) (*RaidReport, error) {
	report := &RaidReport{}
	before := s.TotalStoredBytes()
	netBefore := s.net.CrossRackBytes()
	for _, sh := range s.shards {
		part, err := sh.RunRaidNode(policy)
		if part != nil {
			report.FilesRaided += part.FilesRaided
			report.BlocksEncoded += part.BlocksEncoded
		}
		if err != nil {
			return report, err
		}
	}
	report.StorageReclaimedBytes = before - s.TotalStoredBytes()
	report.CrossRackBytes = s.net.CrossRackBytes() - netBefore
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
	dst.PartialSumRepairs += part.PartialSumRepairs
	dst.Unrecoverable = append(dst.Unrecoverable, part.Unrecoverable...)
	dst.SimulatedRepairSeconds = append(dst.SimulatedRepairSeconds, part.SimulatedRepairSeconds...)
	if part.SimulatedMakespanSeconds > dst.SimulatedMakespanSeconds {
		dst.SimulatedMakespanSeconds = part.SimulatedMakespanSeconds
	}
	if dst.SimulatedParallelism == 0 {
		dst.SimulatedParallelism = part.SimulatedParallelism
	}
}

// fanOutFix runs one fixer-style call per shard in parallel and merges
// the reports under a single outer traffic delta.
func (s *ShardedCluster) fanOutFix(run func(i int, sh *Cluster) (*FixReport, error)) (*FixReport, error) {
	s.fixerMu.Lock()
	defer s.fixerMu.Unlock()
	netBefore := s.net.CrossRackBytes()
	parts := make([]*FixReport, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *Cluster) {
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
	report.CrossRackBytes = s.net.CrossRackBytes() - netBefore
	for _, err := range errs {
		if err != nil {
			return report, err
		}
	}
	return report, nil
}

// RunBlockFixer runs every shard's fixer pass in parallel and merges
// the reports.
func (s *ShardedCluster) RunBlockFixer() (*FixReport, error) {
	return s.fanOutFix(func(_ int, sh *Cluster) (*FixReport, error) { return sh.RunBlockFixer() })
}

// FixStripes groups the stripes by owning shard and repairs each
// group on its shard, in parallel.
func (s *ShardedCluster) FixStripes(ids []StripeID) (*FixReport, error) {
	byShard := make(map[int][]StripeID)
	for _, id := range ids {
		i := s.ShardOfStripe(id)
		byShard[i] = append(byShard[i], id)
	}
	return s.fanOutFix(func(i int, sh *Cluster) (*FixReport, error) {
		group := byShard[i]
		if len(group) == 0 {
			return &FixReport{}, nil
		}
		return sh.FixStripes(group)
	})
}

// ReReplicateBlocks groups the blocks by owning shard and restores
// replication on each shard, in parallel.
func (s *ShardedCluster) ReReplicateBlocks(ids []BlockID) (*FixReport, error) {
	byShard := make(map[int][]BlockID)
	for _, id := range ids {
		i := s.ShardOfBlock(id)
		byShard[i] = append(byShard[i], id)
	}
	return s.fanOutFix(func(i int, sh *Cluster) (*FixReport, error) {
		group := byShard[i]
		if len(group) == 0 {
			return &FixReport{}, nil
		}
		return sh.ReReplicateBlocks(group)
	})
}

// mergeScrubInto folds one shard's scrub report into the merged
// report. Cursor fields come from shard 0: every shard advances its
// cursor over the same machine slice, so the cursors stay aligned.
func mergeScrubInto(dst, part *ScrubReport) {
	if part == nil {
		return
	}
	dst.ScannedReplicas += part.ScannedReplicas
	dst.CorruptReplicas += part.CorruptReplicas
	dst.AffectedBlocks = append(dst.AffectedBlocks, part.AffectedBlocks...)
}

// RunScrubber verifies every shard's replicas (the shared store is
// scanned once per shard, each shard checking only blocks it owns).
func (s *ShardedCluster) RunScrubber() (*ScrubReport, error) {
	report := &ScrubReport{}
	for _, sh := range s.shards {
		part, err := sh.RunScrubber()
		mergeScrubInto(report, part)
		if err != nil {
			return report, err
		}
	}
	slices.Sort(report.AffectedBlocks)
	return report, nil
}

// RunScrubberSlice advances every shard's scrub cursor over the same
// machines-sized slice and merges what they found.
func (s *ShardedCluster) RunScrubberSlice(machines int) (*ScrubReport, error) {
	report := &ScrubReport{}
	for i, sh := range s.shards {
		part, err := sh.RunScrubberSlice(machines)
		mergeScrubInto(report, part)
		if i == 0 && part != nil {
			report.Resumed = part.Resumed
			report.MachinesScanned = part.MachinesScanned
			report.NextMachine = part.NextMachine
		}
		if err != nil {
			return report, err
		}
	}
	slices.Sort(report.AffectedBlocks)
	return report, nil
}

// --- Merged summaries --------------------------------------------------

// Stats merges the shards' metadata inventories; the physical columns
// (LiveMachines, PhysicalBytes) are global and taken once.
func (s *ShardedCluster) Stats() ClusterStats {
	var out ClusterStats
	for i, sh := range s.shards {
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
func (s *ShardedCluster) Health() HealthSummary {
	var out HealthSummary
	for _, sh := range s.shards {
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
func (s *ShardedCluster) LockStats() LockStats {
	var out LockStats
	for _, sh := range s.shards {
		part := sh.LockStats()
		out.WaitNanos += part.WaitNanos
		out.Acquisitions += part.Acquisitions
	}
	return out
}
