// The BlockFixer: full passes, targeted stripe repairs and
// re-replication. Every stripe repair runs one way: plan under the
// metadata lock, one codec ExecuteMultiRepair per stripe on the engine
// with the lock released, apply under the lock.
package hdfs

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/ec"
	"repro/internal/engine"
)

// FixReport summarises one BlockFixer pass.
type FixReport struct {
	// ScannedBlocks is the number of block records examined.
	ScannedBlocks int
	// RepairedStriped counts striped blocks reconstructed via the codec.
	RepairedStriped int
	// ReReplicated counts replicated blocks copied from a surviving
	// replica.
	ReReplicated int
	// Unrecoverable lists blocks that could not be restored.
	Unrecoverable []BlockID
	// CrossRackBytes is the cross-rack traffic this pass generated:
	// its helper fetches, write-outs and re-replication copies, and
	// nothing else the fabric carried meanwhile.
	CrossRackBytes int64
}

// transfer charges b bytes from src to dst to the fabric and, when they
// cross racks, adds them to *xrack (nil: no tally). A fixer pass
// tallies its own traffic this way, because the fabric's counter also
// carries the reads and raids that run beside the pass.
func (c *Cluster) transfer(src, dst int, b int64, xrack *int64) error {
	if err := c.net.Transfer(src, dst, b); err != nil {
		return err
	}
	if xrack != nil && c.cfg.Topology.RackOf(src) != c.cfg.Topology.RackOf(dst) {
		*xrack += b
	}
	return nil
}

// RunBlockFixer scans every block and restores availability: lost
// striped blocks are grouped by stripe and reconstructed with one joint
// repair per stripe (§2.2: 1.87% of affected stripes have two blocks
// missing, and a joint decode shares its downloads across them);
// replicated blocks below their target replication are re-replicated
// from a surviving copy.
//
// A pass holds the metadata lock exclusively only while scanning /
// planning and while applying results; the stripe decodes themselves
// run on the engine with the lock released, so foreground reads
// (healthy and degraded) proceed in parallel with reconstruction.
// Passes are serialised against each other.
func (c *Cluster) RunBlockFixer() (*FixReport, error) {
	c.fixerMu.Lock()
	defer c.fixerMu.Unlock()
	c.lockMeta()
	defer c.mu.Unlock()
	report := &FixReport{}

	// Deterministic iteration: ascending block id. Re-replications run
	// as they are met, before any stripe is planned: both draw from the
	// placement rng.
	ids := make([]BlockID, 0, len(c.blocks))
	for id := range c.blocks {
		ids = append(ids, id)
	}
	slices.Sort(ids)

	// Lost striped blocks are grouped by stripe, stripes in the order
	// their first lost block comes, each with its stripe's snapshot.
	var fixes []*stripeFix
	bySID := make(map[StripeID]*stripeFix)
	for _, id := range ids {
		bm := c.blocks[id]
		report.ScannedBlocks++
		switch {
		case bm.stripe == noStripe:
			c.restoreReplicationLocked(bm, report)
		case !c.hasLiveLocation(bm):
			f := bySID[bm.stripe]
			if f == nil {
				f = &stripeFix{stripe: c.stripeDetailLocked(c.stripes[bm.stripe])}
				bySID[bm.stripe] = f
				fixes = append(fixes, f)
			}
			f.lost = append(f.lost, bm)
		}
	}
	c.repairStripes(fixes, report)
	return c.finish(report), nil
}

// finish closes a pass's report: unrecoverable ids ascending.
func (c *Cluster) finish(report *FixReport) *FixReport {
	slices.Sort(report.Unrecoverable)
	return report
}

// repairStripes runs the stripe-repair pipeline for the given stripes,
// each its snapshot and the blocks it lost — the shared engine behind a
// full RunBlockFixer pass and a targeted FixStripes call. It runs in
// three phases so many stripes decode concurrently through the engine.
// Planning (each stripe's destination picks, which consume the cluster
// rng) stays serial in the given order for determinism and holds the
// metadata lock; execution is one codec ExecuteMultiRepair
// task per stripe on the engine with the lock RELEASED — each decodes
// from its stripe's snapshot and takes no metadata lock, and the
// network fabric's byte accounting is thread-safe — so foreground reads
// interleave with the decodes; application (stores, onward shipping)
// retakes the lock and is serial again in stripe order. A helper whose
// machine dies after the snapshot fails its fetch, and its stripe is
// unrecoverable until the next pass.
//
// Callers hold fixerMu and c.mu exclusively; repairStripes returns
// with c.mu still held.
func (c *Cluster) repairStripes(planned []*stripeFix, report *FixReport) {
	fixes := make([]*stripeFix, 0, len(planned))
	for _, f := range planned {
		if err := c.planStripeFixLocked(f); err != nil {
			for _, bm := range f.lost {
				report.Unrecoverable = append(report.Unrecoverable, bm.id)
			}
			continue
		}
		fixes = append(fixes, f)
	}
	shards := make([]map[int][]byte, len(fixes))
	// Each task's fetches run one after another, so each tallies its
	// own helper bytes without a lock; they are summed once all ran.
	xrack := make([]int64, len(fixes))
	tasks := make([]func(*engine.Scratch) error, len(fixes))
	for i, f := range fixes {
		tasks[i] = func(s *engine.Scratch) (err error) {
			shards[i], err = c.decodeAroundRot(f.stripe, f.positions, f.worker(), s, &xrack[i])
			return err
		}
	}
	c.mu.Unlock()
	errs := c.eng.RunTasks(tasks)
	c.lockMeta()
	for _, b := range xrack {
		report.CrossRackBytes += b
	}
	for i, f := range fixes {
		if errs[i] != nil {
			for _, bm := range f.lost {
				report.Unrecoverable = append(report.Unrecoverable, bm.id)
			}
			continue
		}
		c.applyStripeFixLocked(f, shards[i], report)
	}
}

// decodeAroundRot runs the joint decode of the positions of stripe d,
// a snapshot, at machine dst — a stripe repair at its worker, or a
// degraded read — around any helper whose read fails its checksum
// (engine.DecodeAroundRot). It reads no metadata, so callers need not
// hold the lock. scratch and xrack are snapshotFetch's.
func (c *Cluster) decodeAroundRot(d StripeDetail, positions []int, dst int, scratch *engine.Scratch, xrack *int64) (map[int][]byte, error) {
	return engine.DecodeAroundRot(d.alive, c.snapshotFetch(d, dst, scratch, xrack), isCorruptReplica, scratch, func(alive ec.AliveFunc, fetch ec.FetchFunc) (map[int][]byte, error) {
		return c.cfg.Code.ExecuteMultiRepair(positions, d.ShardSize, alive, fetch)
	})
}

// snapshotFetch builds the codec fetch function over stripe snapshot d:
// phantom positions yield zeros for free; real positions read from a
// random listed holder and charge the transfer to machine dst, and to
// a fixer pass's tally xrack (nil for a read). Each fetch reads the
// range the plan asks for — not the helper's whole block — once, into
// a shard-sized buffer drawn from scratch (the fixer passes its
// worker's arena; nil allocates), and returns a view of it — the codec
// only reads fetched buffers and never returns one, so the arena can
// be reset as soon as the repair returns.
func (c *Cluster) snapshotFetch(d StripeDetail, dst int, scratch *engine.Scratch, xrack *int64) ec.FetchFunc {
	return func(req ec.ReadRequest) ([]byte, error) {
		p := d.Positions[req.Shard]
		if p.Block < 0 {
			return make([]byte, req.Length), nil
		}
		if len(p.Locations) == 0 {
			return nil, fmt.Errorf("%w: stripe %d position %d", ErrBlockLost, d.ID, req.Shard)
		}
		src := c.pickReplica(p.Locations)
		var into []byte
		if scratch != nil {
			into = scratch.Bytes(int(d.ShardSize))
		}
		buf, err := c.nodes[src].readRangeInto(p.Block, req.Offset, req.Length, into)
		if err != nil {
			return nil, err
		}
		if err := c.transfer(src, dst, req.Length, xrack); err != nil {
			return nil, err
		}
		return buf, nil
	}
}

// isCorruptReplica reports whether a read failed on checksum grounds.
func isCorruptReplica(err error) bool { return errors.Is(err, ErrCorruptReplica) }

// FixStripes repairs exactly the given stripes — the repair manager's
// targeted entry point, so a risk-prioritised queue can drain one
// stripe at a time instead of sweeping the whole namespace the way
// RunBlockFixer does. Each stripe is snapshotted once: its lost blocks
// are the real ones the snapshot lists no holder for, and the repair
// plans from that same snapshot, through the same three-phase pipeline
// as a full fixer pass; stripes that turn out healthy are scanned and
// skipped. Unknown stripe ids are an error. Calls are serialised
// against full fixer passes by fixerMu.
func (c *Cluster) FixStripes(ids []StripeID) (*FixReport, error) {
	c.fixerMu.Lock()
	defer c.fixerMu.Unlock()
	c.lockMeta()
	defer c.mu.Unlock()
	report := &FixReport{}
	var fixes []*stripeFix
	seen := make(map[StripeID]bool, len(ids))
	for _, sid := range ids {
		if seen[sid] {
			continue
		}
		seen[sid] = true
		sm, ok := c.stripes[sid]
		if !ok {
			return nil, fmt.Errorf("hdfs: stripe %d not found", sid)
		}
		f := &stripeFix{stripe: c.stripeDetailLocked(sm)}
		for _, p := range f.stripe.Positions {
			if p.Block < 0 {
				continue
			}
			report.ScannedBlocks++
			if len(p.Locations) == 0 {
				f.lost = append(f.lost, c.blocks[p.Block])
			}
		}
		if len(f.lost) > 0 {
			fixes = append(fixes, f)
		}
	}
	c.repairStripes(fixes, report)
	return c.finish(report), nil
}

// ReReplicateBlocks restores the replication target of exactly the
// given un-striped blocks — the repair manager's targeted counterpart
// to the fixer's re-replication sweep. Striped blocks are skipped
// (repair them via FixStripes); blocks already at target are scanned
// and skipped; blocks with no surviving replica are reported
// unrecoverable. Unknown block ids are skipped, not an error: the
// manager may hold a stale inventory of a machine whose blocks were
// since deleted.
func (c *Cluster) ReReplicateBlocks(ids []BlockID) (*FixReport, error) {
	c.fixerMu.Lock()
	defer c.fixerMu.Unlock()
	c.lockMeta()
	defer c.mu.Unlock()
	report := &FixReport{}
	for _, id := range ids {
		bm, ok := c.blocks[id]
		if !ok || bm.stripe != noStripe {
			continue
		}
		report.ScannedBlocks++
		c.restoreReplicationLocked(bm, report)
	}
	return c.finish(report), nil
}

// restoreReplicationLocked brings one un-striped block back to the
// replication target from a live replica, counting it re-replicated,
// or unrecoverable when no replica can be copied. A block at target is
// left alone.
func (c *Cluster) restoreReplicationLocked(bm *blockMeta, report *FixReport) {
	live := c.liveLocations(bm)
	if len(live) >= c.cfg.Replication {
		return
	}
	if len(live) == 0 || c.reReplicateLocked(bm, live, c.cfg.Replication, &report.CrossRackBytes) != nil {
		report.Unrecoverable = append(report.Unrecoverable, bm.id)
		return
	}
	report.ReReplicated++
}

// racksOf returns the racks of stripe snapshot d's holders.
func (c *Cluster) racksOf(d StripeDetail) map[int]bool {
	racks := make(map[int]bool)
	for _, p := range d.Positions {
		for _, m := range p.Locations {
			racks[c.cfg.Topology.RackOf(m)] = true
		}
	}
	return racks
}

// stripeFix is one planned stripe repair: the stripe's snapshot it
// decodes from, which positions to rebuild and where each
// reconstructed block lands. The joint decode executes at the first
// destination (the worker); the other blocks are shipped onward from
// there.
type stripeFix struct {
	stripe       StripeDetail
	lost         []*blockMeta
	positions    []int
	destinations []int
}

// worker returns the machine the joint decode runs on.
func (f *stripeFix) worker() int { return f.destinations[0] }

// planStripeFixLocked picks, for a fix that holds its stripe's snapshot
// and lost blocks, a destination for every lost block off the racks of
// the snapshot's holders and of the other picks. Planning consumes the
// cluster rng, so callers must plan stripes in deterministic order.
func (c *Cluster) planStripeFixLocked(fix *stripeFix) error {
	fix.positions = make([]int, len(fix.lost))
	fix.destinations = make([]int, len(fix.lost))
	exclude := c.racksOf(fix.stripe)
	for i, bm := range fix.lost {
		fix.positions[i] = bm.stripePos
		dst, err := c.pickLiveMachine(exclude)
		if err != nil {
			return err
		}
		fix.destinations[i] = dst
		exclude[c.cfg.Topology.RackOf(dst)] = true
	}
	return nil
}

// applyStripeFixLocked stores the reconstructed blocks at their planned
// destinations, shipping blocks onward from the decode worker, and
// accounts per block: a block that regained a live replica while the
// decode ran with the lock released (its machine was restored
// mid-pass) is left as it is; a block whose destination died mid-pass
// is recorded unrecoverable on its own, without disturbing the
// accounting of siblings in the same fix that did land. A rebuilt block
// whose CRC-32 differs from the block's is refused by the destination's
// store (storeChecked: the check rides on the chunk-table fill, the one
// pass over the block's bytes) and counts unrecoverable: a helper served
// rot its store could not detect, and VerifyReplica must evict it
// before a later pass can rebuild.
func (c *Cluster) applyStripeFixLocked(f *stripeFix, shards map[int][]byte, report *FixReport) {
	worker := f.worker()
	for i, bm := range f.lost {
		if c.hasLiveLocation(bm) {
			continue
		}
		content := shards[bm.stripePos][:bm.size]
		dst := f.destinations[i]
		if dst != worker {
			if err := c.transfer(worker, dst, bm.size, &report.CrossRackBytes); err != nil {
				report.Unrecoverable = append(report.Unrecoverable, bm.id)
				continue
			}
		}
		//repolint:ignore lockdiscipline ROADMAP 4(a): the fixer's stores move to the dn.repair destination; moving them out of this phase in process measured no gain
		if err := c.nodes[dst].storeChecked(bm.id, content, bm.checksum); err != nil {
			report.Unrecoverable = append(report.Unrecoverable, bm.id)
			continue
		}
		bm.locations = []int{dst}
		report.RepairedStriped++
	}
}

// reReplicateLocked copies a replicated block from a live replica until
// it reaches the target count, preferring fresh racks. The source is
// the first live replica that reads back and matches the block's
// CRC-32: a rotted replica is never copied, and the block is lost only
// when no replica passes. Each copy is stored checked against that CRC
// too, which costs no extra pass.
func (c *Cluster) reReplicateLocked(bm *blockMeta, live []int, target int, xrack *int64) error {
	current := append([]int(nil), live...)
	src, buf := -1, []byte(nil)
	for len(current) < target {
		exclude := make(map[int]bool)
		for _, m := range current {
			exclude[c.cfg.Topology.RackOf(m)] = true
		}
		dst, err := c.pickLiveMachine(exclude)
		if err != nil {
			return err
		}
		if src < 0 {
			if src, buf = c.goodReplicaLocked(bm, live); src < 0 {
				return fmt.Errorf("%w: block %d has no replica that matches its checksum", ErrBlockLost, bm.id)
			}
		}
		if err := c.transfer(src, dst, bm.size, xrack); err != nil {
			return err
		}
		//repolint:ignore lockdiscipline ROADMAP 4(a): re-replication's store moves with the fixer's to the datanode side
		if err := c.nodes[dst].storeChecked(bm.id, buf, bm.checksum); err != nil {
			return err
		}
		current = append(current, dst)
	}
	bm.locations = current
	return nil
}

// goodReplicaLocked reads the block from the first of machines whose
// copy reads back and matches the block's CRC-32, or returns -1 when
// none does. The read verifies the copy against its chunk table, and
// the table yields the copy's CRC-32 (dataNode.checksum): one pass over
// the bytes, not two.
func (c *Cluster) goodReplicaLocked(bm *blockMeta, machines []int) (int, []byte) {
	for _, m := range machines {
		if buf, err := c.nodes[m].readRange(bm.id, 0, bm.size); err == nil && c.nodes[m].checksum(bm.id, buf) == bm.checksum {
			return m, buf
		}
	}
	return -1, nil
}
