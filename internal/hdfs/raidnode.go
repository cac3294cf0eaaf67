// RaidNode policy engine and scrubber.
//
// §2.1 of the paper: "The most frequently accessed data is stored as 3
// replicas ... the data which has not been accessed for more than three
// months is stored as a (10,4) RS code." This file implements that
// tiering loop — a logical clock, per-file access tracking, a cold-data
// policy, and a RaidNode pass that erasure-codes every cold file — plus
// the checksum scrubber that detects silently corrupted replicas so the
// BlockFixer can reconstruct them.
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

// ScrubReport summarises one scrubber pass.
type ScrubReport struct {
	// ScannedReplicas counts replica payloads whose checksum was
	// recomputed.
	ScannedReplicas int
	// CorruptReplicas counts replicas whose content no longer matched
	// the block checksum; they are dropped so the fixer rebuilds them.
	CorruptReplicas int
	// AffectedBlocks lists blocks that lost at least one replica.
	AffectedBlocks []BlockID
	// Resumed reports that the slice continued from a mid-cycle cursor
	// rather than starting at machine 0.
	Resumed bool
	// MachinesScanned counts the machines the slice covered;
	// NextMachine is where the next slice resumes.
	MachinesScanned int
	NextMachine     int
}

// RunScrubberSlice is the scrubber: it reads every replica on the NEXT
// machines (round-robin cursor over the cluster, wrapping), which
// verifies its bytes against the store's chunk CRCs, checks the CRC-32
// those chunks fold to against the block's recorded one, and evicts
// corrupt replicas. It does not repair; run the BlockFixer afterwards, as the
// production pipeline does. A repair manager schedules small slices on
// a timer instead of stalling a control-loop tick on a full-cluster
// sweep; a slice of Machines() machines is one full cycle, which scans
// every machine and leaves the cursor where it began. Dead machines are
// skipped (their replicas are unreadable, and the failure detector owns
// that case). The report's Resumed field distinguishes a mid-cycle
// slice from one that started a fresh cycle at machine 0.
func (c *Cluster) RunScrubberSlice(machines int) (*ScrubReport, error) {
	if machines < 1 {
		return nil, errors.New("hdfs: scrub slice must cover at least one machine")
	}
	c.lockMeta()
	defer c.mu.Unlock()
	if machines > len(c.nodes) {
		machines = len(c.nodes)
	}
	report := &ScrubReport{Resumed: c.scrubCursor != 0}
	affected := make(map[BlockID]bool)
	for i := 0; i < machines; i++ {
		m := (c.scrubCursor + i) % len(c.nodes)
		c.scrubMachineLocked(m, report, affected)
		report.MachinesScanned++
	}
	c.scrubCursor = (c.scrubCursor + machines) % len(c.nodes)
	report.NextMachine = c.scrubCursor
	slices.Sort(report.AffectedBlocks)
	return report, nil
}

// scrubMachineLocked checksums every replica held by one live machine,
// evicting corrupt ones. affected dedups blocks across the machines of
// one slice.
func (c *Cluster) scrubMachineLocked(m int, report *ScrubReport, affected map[BlockID]bool) {
	node := c.nodes[m]
	if !node.isAlive() {
		return
	}
	ids, ok := node.blockIDs()
	if !ok {
		return // crashed store; nothing scannable until recovery
	}
	slices.Sort(ids)
	for _, id := range ids {
		bm, ok := c.blocks[id]
		if !ok {
			continue
		}
		buf, err := node.readRange(id, 0, bm.size)
		if err != nil {
			if !errors.Is(err, ErrCorruptReplica) {
				continue // machine died mid-slice; the detector owns it
			}
			// Storage-level rot: fall through to eviction with an empty
			// buffer, which cannot match the recorded checksum.
			report.ScannedReplicas++
			buf = nil
		} else {
			report.ScannedReplicas++
		}
		if buf != nil && node.checksum(id, buf) == bm.checksum {
			continue
		}
		node.delete(id)
		clean := bm.locations[:0]
		for _, loc := range bm.locations {
			if loc != m {
				clean = append(clean, loc)
			}
		}
		bm.locations = clean
		report.CorruptReplicas++
		if !affected[id] {
			affected[id] = true
			report.AffectedBlocks = append(report.AffectedBlocks, id)
		}
	}
}

// InjectBitRot flips one byte of the replica of block id stored on the
// given machine — a test hook standing in for the silent disk
// corruption scrubbers exist to catch. It deliberately bypasses
// checksum maintenance.
//
//repolint:ignore deadexport test fault for serve's TestPersistentCorruptedSegmentTargetedRepair, TestServeCorruptReplicaFallsBackDegraded, TestCorruptReplicaIsMatchedByItsCodeNotItsWording and TestLentBlocksCutADegradedReadToOneShard, and repairmgr's TestManagerScrubScheduling
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
