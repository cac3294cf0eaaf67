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
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/ec"
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
	// write, read or block-table fetch; the RaidNode's cold-data policy
	// keys off it (§2.1), and reads it of unraided files only. A serve
	// client with a block cache rereads a raided file by a table it kept,
	// without asking the namenode, so such a reread does not touch it; an
	// unraided file's table is never kept, so each of its reads does. It
	// is atomic so the read path can bump it while holding only the
	// metadata read lock.
	lastAccess atomic.Int64
}

// Config parameterises a Cluster. Every knob is a field; there is no
// second way to set one.
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
	// Seed drives placement randomness.
	Seed int64
	// Telemetry, when non-nil, is the metrics registry the cluster
	// publishes into: the metadata-lock gauges (hdfs_lock_wait_seconds,
	// hdfs_meta_ops) and the repair engine's instruments.
	Telemetry *telemetry.Registry
	// StoreFactory builds each datanode's BlockStore
	// (ExtentStoreFactory, or a decorator over it). Nil: extent stores
	// in a directory the Cluster owns — New makes it and Close removes
	// it. The factory must be reopen-safe: RecoverMachine calls it
	// again after CrashMachine to rebuild the node's index from durable
	// state.
	StoreFactory func(machine int) (BlockStore, error)
	// NodeCacheBytes, when positive, fronts every datanode's BlockStore
	// with a sharded SIEVE read cache of this byte budget (per machine,
	// nodeCacheShards shards): hot-block reads skip the store's disk
	// read + CRC pass. The cache invalidates on overwrite, delete, a bad
	// replica's eviction, corruption injection, and crash, and every hit
	// is liveness-double-checked, so cached bytes can never go stale.
	NodeCacheBytes int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
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
	return nil
}
