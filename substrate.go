// The cluster substrate: the switch-level network model, the MiniHDFS
// (HDFS + HDFS-RAID) cluster, and the sharded metadata plane behind
// the Metadata interface family.

package repro

import (
	"repro/internal/cluster"
	"repro/internal/hdfs"
)

// Topology is a racks x machines cluster layout.
type Topology = cluster.Topology

// Network is the switch-level byte-accounting fabric (TOR switches plus
// aggregation switch, Fig. 1).
type Network = cluster.Network

// BandwidthModel converts repair plans into §3.2 recovery-time
// estimates.
type BandwidthModel = cluster.BandwidthModel

// DefaultBandwidthModel returns 2013-era disk and NIC bandwidths.
func DefaultBandwidthModel() BandwidthModel { return cluster.DefaultBandwidthModel() }

// MiniHDFS is the in-process HDFS + HDFS-RAID model: one metadata
// shard. It satisfies Metadata (and, degenerately, ShardRouter).
type MiniHDFS = hdfs.Cluster

// HDFSConfig parameterises a MiniHDFS.
type HDFSConfig = hdfs.Config

// HDFSOption mutates an HDFSConfig before validation; options apply
// after the base config, so they win over the corresponding
// (deprecated) struct fields.
type HDFSOption = hdfs.Option

// FixReport summarises one BlockFixer pass.
type FixReport = hdfs.FixReport

// RaidPolicy decides which files the RaidNode erasure-codes.
type RaidPolicy = hdfs.RaidPolicy

// RaidReport summarises one RaidNode policy pass.
type RaidReport = hdfs.RaidReport

// ScrubReport summarises one checksum-scrubber pass.
type ScrubReport = hdfs.ScrubReport

// DefaultRaidPolicy returns the paper's §2.1 policy: erasure-code data
// not accessed for three months.
func DefaultRaidPolicy() RaidPolicy { return hdfs.DefaultRaidPolicy() }

// NewMiniHDFS builds an empty miniature DFS (a single metadata shard;
// use OpenMiniHDFS for a sharded plane).
func NewMiniHDFS(cfg HDFSConfig, opts ...HDFSOption) (*MiniHDFS, error) {
	return hdfs.New(cfg, opts...)
}

// --- Sharded metadata plane --------------------------------------------

// MetadataView is the read-only face of the metadata plane: lookups,
// placement, stats, and health. Serving datanodes consume exactly this.
type MetadataView = hdfs.MetadataView

// RepairOps is the repair face of the metadata plane: block-fixer
// passes, targeted stripe fixes, re-replication, and scrubbing. The
// repair control plane consumes MetadataView plus RepairOps.
type RepairOps = hdfs.RepairOps

// AdminOps is the mutating face of the metadata plane: file IO,
// raiding, machine lifecycle, and clock control.
type AdminOps = hdfs.AdminOps

// Metadata is the full metadata-plane contract — MetadataView,
// RepairOps, and AdminOps together. Both MiniHDFS and
// ShardedMiniHDFS satisfy it; every layer above the substrate
// (serving, repair manager, simulation) consumes this interface, never
// a concrete type.
type Metadata = hdfs.Metadata

// ShardRouter exposes the shard structure of a metadata plane: how
// many shards, which shard a file name / stripe ID / block ID routes
// to, and access to each shard. A MiniHDFS is its own single shard.
type ShardRouter = hdfs.ShardRouter

// LockStats counts metadata-lock acquisitions and cumulative wait on
// the serving paths — the contention signal the sharded plane divides.
type LockStats = hdfs.LockStats

// ShardedMiniHDFS partitions file→stripe metadata into independently
// locked shards over one shared physical plane. Files route to shards
// by a seeded consistent hash of their parent directory (stable across
// restarts, directory subtrees shard-local); block and stripe IDs are
// minted strided so ID→shard routing is arithmetic.
type ShardedMiniHDFS = hdfs.ShardedCluster

// OpenMiniHDFS builds a metadata plane sized by cfg.Shards (after
// options): a single MiniHDFS for 0 or 1, a ShardedMiniHDFS
// otherwise. Callers holding the Metadata interface never care which.
func OpenMiniHDFS(cfg HDFSConfig, opts ...HDFSOption) (Metadata, error) {
	return hdfs.Open(cfg, opts...)
}

// WithShards partitions the metadata plane into n independently locked
// shards. Replaces setting HDFSConfig.Shards.
func WithShards(n int) HDFSOption { return hdfs.WithShards(n) }
