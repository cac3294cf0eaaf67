// The cluster substrate: the switch-level network model, the MiniHDFS
// (HDFS + HDFS-RAID) cluster, and the Metadata interface family the
// layers above consume it through.

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

// MiniHDFS is the in-process HDFS + HDFS-RAID model: HDFSConfig.Shards
// metadata shards (one by default — the paper's single namenode) over
// one physical plane of datanodes and network. It is the one
// implementation of Metadata.
type MiniHDFS = hdfs.Cluster

// HDFSConfig parameterises a MiniHDFS.
type HDFSConfig = hdfs.Config

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

// NewMiniHDFS builds an empty miniature DFS.
func NewMiniHDFS(cfg HDFSConfig) (*MiniHDFS, error) {
	return hdfs.New(cfg)
}

// --- The metadata plane's interface family --------------------------------

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
// RepairOps, AdminOps and ShardRouter together. Every layer above the
// substrate (serving, repair manager, simulation) consumes this
// interface, never the concrete MiniHDFS.
type Metadata = hdfs.Metadata

// ShardRouter exposes the shard structure of the metadata plane: how
// many shards (one or more), which shard a file name / stripe ID /
// block ID routes to, and each shard's read and repair surface. Files
// route by a seeded consistent hash of their parent directory (stable
// across restarts, directory subtrees shard-local); block and stripe
// IDs are minted strided so ID→shard routing is arithmetic.
type ShardRouter = hdfs.ShardRouter

// LockStats counts metadata-lock acquisitions and cumulative wait on
// the serving paths — the contention signal sharding divides.
type LockStats = hdfs.LockStats
