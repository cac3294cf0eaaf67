package hdfs

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/ec"
)

// The serving, repair, and admin layers consume the metadata plane
// through the interfaces below instead of the concrete *Cluster, so
// nothing above this package depends on how the plane is built. The
// split follows the consumers: DataNode RPC handlers need MetadataView,
// the repair manager needs MetadataView + RepairOps (of the plane, and
// of each shard for its lanes), and test harnesses / the namenode need
// everything (Metadata).

// MetadataView is the read-only serving surface of the metadata plane:
// file, block, stripe and machine lookups plus cluster-wide summaries.
// All methods are safe for concurrent use.
type MetadataView interface {
	// Stat returns a file's metadata.
	Stat(name string) (FileInfo, error)
	// FileBlocks returns the file's size and per-block snapshots — the
	// read-path handshake of the serving layer.
	FileBlocks(name string) (int64, []BlockInfo, error)
	// BlockLocations returns, per block of the file, the machines
	// holding live replicas.
	BlockLocations(name string) ([][]int, error)
	// StripeOf maps a file block to its stripe id and position.
	StripeOf(name string, blockIndex int) (StripeID, int, error)
	// Stripe returns one stripe's layout for degraded reads.
	Stripe(id StripeID) (StripeDetail, error)
	// StripeRacks returns the racks hosting live blocks of the stripe.
	StripeRacks(id StripeID) ([]int, error)
	// StripeErasures counts stripe positions with no live replica.
	StripeErasures(id StripeID) (int, error)
	// BlockInfoByID resolves one block's snapshot by id.
	BlockInfoByID(id BlockID) (BlockInfo, bool)
	// Machines returns the machine count.
	Machines() int
	// MachineAlive reports liveness of one machine.
	MachineAlive(id int) bool
	// MachineInventory summarizes what one machine holds.
	MachineInventory(m int) MachineInventory
	// BlocksOn lists block ids with a replica on the machine.
	BlocksOn(machine int) []BlockID
	// Topology returns the rack/machine layout.
	Topology() cluster.Topology
	// BlockSize returns the configured block payload bound.
	BlockSize() int64
	// Replication returns the un-raided replica count.
	Replication() int
	// Code returns the erasure codec.
	Code() ec.Code
	// Stats returns the cluster inventory.
	Stats() ClusterStats
	// TotalStoredBytes sums live replica bytes across machines.
	TotalStoredBytes() int64
	// Health computes the availability summary.
	Health() HealthSummary
	// Network returns the shared cross-rack traffic fabric.
	Network() *cluster.Network
	// LockStats returns cumulative metadata-lock contention counters.
	LockStats() LockStats
	// NodeReadRangeInto reads a byte range of a block replica from one
	// machine — the DataNode data path — into buf when its capacity
	// holds the block's padded size (nil allocates).
	NodeReadRangeInto(machine int, id BlockID, offset, length int64, buf []byte) ([]byte, error)
}

// RepairOps is the mutation surface the repair control plane drives:
// fixer passes, targeted repairs, and scrubbing.
type RepairOps interface {
	// RunBlockFixer scans everything and repairs all lost blocks.
	RunBlockFixer() (*FixReport, error)
	// FixStripes repairs exactly the given stripes.
	FixStripes(ids []StripeID) (*FixReport, error)
	// ReReplicateBlocks restores replication of the given un-raided
	// blocks.
	ReReplicateBlocks(ids []BlockID) (*FixReport, error)
	// RunScrubber verifies every replica checksum.
	RunScrubber() (*ScrubReport, error)
	// RunScrubberSlice verifies the next machines-sized slice of the
	// round-robin scrub cursor.
	RunScrubberSlice(machines int) (*ScrubReport, error)
}

// AdminOps is the file, machine, and clock lifecycle surface: what a
// workload driver or operator does to a cluster.
type AdminOps interface {
	// WriteFile stores a new replicated file.
	WriteFile(name string, data []byte) error
	// ReadFile returns the file bytes, reconstructing through the
	// degraded-read path when replicas are missing.
	ReadFile(name string) ([]byte, error)
	// RaidFile erasure-codes the file's blocks into stripes.
	RaidFile(name string) error
	// FailMachine marks a machine dead.
	FailMachine(id int)
	// RestoreMachine revives a machine with its blocks intact.
	RestoreMachine(id int)
	// CrashMachine marks a machine dead AND closes its block store,
	// discarding all in-memory index state; a persistent store's bytes
	// stay on disk for RecoverMachine. Volatile stores degenerate to
	// FailMachine.
	CrashMachine(id int) error
	// RecoverMachine reopens a crashed machine's store (persistent
	// stores rebuild their index by scanning segment files) and marks
	// it alive.
	RecoverMachine(id int) error
	// DecommissionMachine kills a machine and drops its blocks.
	DecommissionMachine(id int)
	// Close releases every datanode's block store.
	Close() error
	// AdvanceClock moves the logical raid-policy clock.
	AdvanceClock(d time.Duration)
	// Now reads the logical clock.
	Now() time.Duration
	// RaidCandidates lists files the policy would raid now.
	RaidCandidates(policy RaidPolicy) []string
	// RunRaidNode raids every candidate under the policy.
	RunRaidNode(policy RaidPolicy) (*RaidReport, error)
	// InjectBitRot flips one byte of a stored replica.
	InjectBitRot(machine int, id BlockID, offset int64) error
}

// Metadata is the full metadata-plane API — what the serve namenode
// holds. *Cluster, built by New, is its one implementation.
type Metadata interface {
	MetadataView
	RepairOps
	AdminOps
	ShardRouter
}

// ShardRouter is the routing surface of the plane: how many metadata
// shards it has (one or more), which of them owns a name or an id, and
// each shard's own read and repair surface — the repair manager builds
// one lane per shard from it.
type ShardRouter interface {
	// Shards returns the shard count (>= 1).
	Shards() int
	// ShardOf returns the shard index owning the file name.
	ShardOf(name string) int
	// ShardOfStripe returns the shard index owning the stripe id.
	ShardOfStripe(id StripeID) int
	// ShardOfBlock returns the shard index owning the block id.
	ShardOfBlock(id BlockID) int
	// Shard returns the read and repair surface of the shard at index i
	// (routing-free: callers must only hand it ids it owns; machine- and
	// cluster-scoped answers cover what that shard owns).
	Shard(i int) interface {
		MetadataView
		RepairOps
	}
}

// Compile-time interface conformance.
var _ Metadata = (*Cluster)(nil)
