// RaidNode policy engine and replica verifier.
//
// §2.1 of the paper: "The most frequently accessed data is stored as 3
// replicas ... the data which has not been accessed for more than three
// months is stored as a (10,4) RS code." This file implements that
// tiering loop — a logical clock, per-file access tracking, a cold-data
// policy, and a RaidNode pass that erasure-codes every cold file — plus
// the replica verifier a reader's report of a bad replica runs, which
// evicts a replica only after its own read of it fails the block's
// checksum, so the repair path can rebuild it.
package hdfs

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"
)

// DefaultColdAge is the paper's archival threshold: three months
// without access.
const DefaultColdAge = 90 * 24 * time.Hour

// RaidPolicy decides which files the RaidNode encodes.
type RaidPolicy struct {
	// ColdAge is the minimum time since last access.
	ColdAge time.Duration
}

// DefaultRaidPolicy returns the paper's three-month policy.
func DefaultRaidPolicy() RaidPolicy { return RaidPolicy{ColdAge: DefaultColdAge} }

// AdvanceClock moves the cluster's logical clock forward. The clock
// only drives the raid policy; it never affects data paths.
func (c *Cluster) AdvanceClock(d time.Duration) {
	c.lockMeta()
	defer c.mu.Unlock()
	if d > 0 {
		c.now += d
	}
}

// Now returns the logical clock.
func (c *Cluster) Now() time.Duration {
	c.rlockMeta()
	defer c.mu.RUnlock()
	return c.now
}

// RaidCandidates returns the files the policy would erasure-code:
// un-raided files whose last access is at least ColdAge ago, sorted by
// name for determinism.
func (c *Cluster) RaidCandidates(policy RaidPolicy) []string {
	c.rlockMeta()
	defer c.mu.RUnlock()
	var out []string
	for name, fm := range c.files {
		if fm.raided {
			continue
		}
		if c.now-time.Duration(fm.lastAccess.Load()) >= policy.ColdAge {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// RaidReport summarises one RaidNode pass.
type RaidReport struct {
	// FilesRaided counts files converted from replication to the code.
	FilesRaided int
	// BlocksEncoded counts data blocks that joined stripes.
	BlocksEncoded int
	// StorageReclaimedBytes is the drop in physical bytes stored.
	StorageReclaimedBytes int64
	// CrossRackBytes is the traffic the encoding itself moved.
	CrossRackBytes int64
}

// RunRaidNode applies the policy: every cold file is erasure-coded and
// its extra replicas dropped, exactly as the production RaidNode does
// for data older than three months.
func (c *Cluster) RunRaidNode(policy RaidPolicy) (*RaidReport, error) {
	report := &RaidReport{}
	before := c.TotalStoredBytes()
	netBefore := c.net.CrossRackBytes()
	for _, name := range c.RaidCandidates(policy) {
		info, err := c.Stat(name)
		if err != nil {
			return report, err
		}
		if err := c.RaidFile(name); err != nil {
			return report, fmt.Errorf("hdfs: raid policy on %s: %w", name, err)
		}
		report.FilesRaided++
		report.BlocksEncoded += info.Blocks
	}
	report.StorageReclaimedBytes = before - c.TotalStoredBytes()
	report.CrossRackBytes = c.net.CrossRackBytes() - netBefore
	return report, nil
}

// ReplicaVerdict is what VerifyReplica found of one replica.
type ReplicaVerdict uint8

const (
	// ReplicaSound: the replica's bytes match the block's CRC-32; it
	// stays.
	ReplicaSound ReplicaVerdict = iota
	// ReplicaEvicted: they did not; the replica was deleted and the
	// machine dropped from the block's holders, so the block is short
	// one replica until a repair restores it.
	ReplicaEvicted
	// ReplicaNotHeld: the metadata lists no replica of the block on the
	// machine (another report evicted it first, or it never held one).
	ReplicaNotHeld
)

func (v ReplicaVerdict) String() string {
	switch v {
	case ReplicaSound:
		return "sound"
	case ReplicaEvicted:
		return "evicted"
	case ReplicaNotHeld:
		return "not_held"
	}
	return "unknown"
}

// VerifyReplica re-reads block id's replica on machine through the
// node's checked read (its store's chunk CRCs, node cache included),
// compares the CRC-32 that read folds to with the block's, and evicts
// the replica only on a mismatch: a store that refuses the read as
// corrupt is a mismatch, any other failure to read (the machine is
// down, the store lost the block) is returned as an error and changes
// nothing. It does not repair; an evicted replica is a missing one, for
// the repair manager or the BlockFixer to rebuild. A reader that
// refused a replica reports it here through the namenode, so the word
// of one reader is checked before any replica is dropped. An unknown
// block or machine is an error.
func (c *Cluster) VerifyReplica(id BlockID, machine int) (ReplicaVerdict, error) {
	node, err := c.machine(machine)
	if err != nil {
		return 0, err
	}
	c.lockMeta()
	defer c.mu.Unlock()
	bm, ok := c.blocks[id]
	if !ok {
		return 0, fmt.Errorf("hdfs: no block %d", id)
	}
	if !slices.Contains(bm.locations, machine) {
		return ReplicaNotHeld, nil
	}
	buf, err := node.readRange(id, 0, bm.size)
	if err != nil && !errors.Is(err, ErrCorruptReplica) {
		return 0, err
	}
	if err == nil && node.checksum(id, buf) == bm.checksum {
		return ReplicaSound, nil
	}
	node.delete(id)
	bm.locations = slices.DeleteFunc(bm.locations, func(loc int) bool { return loc == machine })
	return ReplicaEvicted, nil
}

// InjectBitRot flips one byte of the replica of block id stored on the
// given machine — a test hook standing in for the silent disk
// corruption checksums exist to catch. It deliberately bypasses
// checksum maintenance.
//
//repolint:ignore deadexport test fault for serve's TestPersistentCorruptedSegmentTargetedRepair, TestServeCorruptReplicaFallsBackDegraded, TestCorruptReplicaIsMatchedByItsCodeNotItsWording, TestLentBlocksCutADegradedReadToOneShard and TestReportedRotIsRebuiltWithinOnePoll, and repairmgr's TestManagerRepairsAnEvictedReplica
func (c *Cluster) InjectBitRot(machine int, id BlockID, offset int64) error {
	node, err := c.machine(machine)
	if err != nil {
		return err
	}
	c.lockMeta()
	defer c.mu.Unlock()
	node.mu.Lock()
	defer node.mu.Unlock()
	if node.crashed || !node.store.Has(id) {
		return fmt.Errorf("hdfs: node %d does not hold block %d", machine, id)
	}
	// Corrupt the STORED bytes — a byte in the segment file on disk,
	// so only a read path that verifies disk contents can notice.
	return node.store.Corrupt(id, offset)
}
