// The metadata plane: a Cluster is one metadata shard over the
// datanodes — the paper's cluster (§2.1: one namenode, one RaidNode,
// one BlockFixer, the HDFS-RAID shape). The lock helpers and namespace
// lookups are in shard.go, the datanodes and the machine lifecycle in
// physical.go, writes and raiding in files.go, the BlockFixer in
// fixer.go, the raid policy and the replica verifier in raidnode.go.
package hdfs

import (
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/extent"
)

// Cluster is the miniature DFS: the namenode's metadata — files, their
// blocks and stripes, and everything that serialises on them: a
// metadata lock, a placement rng, a fixer pass — over the datanode
// stores and the cross-rack traffic fabric. It is the only metadata
// plane.
//
// Locking is layered so a serving frontend can drive many operations
// concurrently (race-detector clean):
//
//   - mu, a RWMutex, guards the namenode metadata (files, blocks,
//     stripes, id counters, clock, names in flight). Healthy reads and
//     degraded-read reconstructions hold it in read mode and proceed in
//     parallel. A mutation that moves bytes runs in three phases: it
//     plans under mu held exclusively, does its I/O with mu released,
//     and commits under mu again. WriteFile plans ids and placements,
//     stores its replicas, and publishes the file; RaidFile plans
//     stripes, reads, encodes and stores, and publishes them; a fixer
//     pass plans repairs, decodes them on the engine, and applies them
//     (its stores are still made under the lock, until they move to a
//     datanode-side repair). A name claimed by a write or raid in
//     flight makes a second one of the same name wait for its outcome.
//   - Each dataNode has its own leaf mutex guarding its store handle and
//     liveness flag. It covers the lifecycle calls (crash, recover,
//     wipe) but never a block's read, write, delete or Has: block I/O
//     on different machines never contends, and a machine-state change
//     never waits for a block's I/O.
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
	// dir is the directory New made for the datanodes' stores when
	// Config.StoreFactory was nil ("" otherwise); Close removes it.
	dir string

	// lockWaitNanos accumulates time metadata operations spent WAITING
	// to acquire mu (read or write mode), and metaOps counts them —
	// the contention signal LockStats reports.
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
	// inflight holds, for each name a WriteFile or RaidFile has claimed
	// and not yet committed or abandoned, a channel closed when it does.
	inflight map[string]chan struct{}
	// now is the logical clock driving the raid policy.
	now time.Duration
}

// New builds an empty cluster. Placement draws from a rng seeded with
// cfg.Seed, and block and stripe ids are dense from 0. Without
// cfg.StoreFactory every datanode gets an extent store in a fresh
// directory under os.TempDir(), which Close removes.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net, err := cluster.NewNetwork(cfg.Topology)
	if err != nil {
		return nil, err
	}
	var dir string
	if cfg.StoreFactory == nil {
		if dir, err = os.MkdirTemp("", "hdfs-"); err != nil {
			return nil, err
		}
		cfg.StoreFactory = ExtentStoreFactory(dir, extent.Options{})
	}
	nodes, err := newDataNodes(cfg)
	if err != nil {
		if dir != "" {
			_ = os.RemoveAll(dir)
		}
		return nil, err
	}
	c := &Cluster{
		cfg:      cfg,
		net:      net,
		nodes:    nodes,
		dir:      dir,
		eng:      engine.New(engine.Options{Telemetry: cfg.Telemetry}),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		files:    make(map[string]*fileMeta),
		blocks:   make(map[BlockID]*blockMeta),
		stripes:  make(map[StripeID]*stripeMeta),
		inflight: make(map[string]chan struct{}),
	}
	if reg := cfg.Telemetry; reg != nil {
		reg.RegisterGauge("hdfs_lock_wait_seconds", func() float64 {
			return float64(c.lockWaitNanos.Load()) / 1e9
		})
		reg.RegisterGauge("hdfs_meta_ops", func() float64 {
			return float64(c.metaOps.Load())
		})
	}
	return c, nil
}

// BlocksOn lists block ids with a replica on the machine, sorted
// ascending: the node's own index while its store is open, and once the
// store is crashed — the repair control plane asks exactly this about
// machines that just died (grace-window repair estimates) — what the
// metadata records on it. An unknown machine holds nothing.
func (c *Cluster) BlocksOn(machine int) []BlockID {
	node, err := c.machine(machine)
	if err != nil {
		return nil
	}
	out, ok := node.blockIDs()
	if !ok {
		c.rlockMeta()
		out = c.recordedOnLocked(machine)
		c.mu.RUnlock()
	}
	slices.Sort(out)
	return out
}
