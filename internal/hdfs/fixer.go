// The BlockFixer of one metadata shard — RepairOps: full passes,
// targeted stripe repairs and re-replication, all through one
// three-phase pipeline (plan under the metadata lock, decode on the
// engine with it released, apply under the lock), plus the optional
// contention replay of a pass's wire transfers.
package hdfs

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/ec"
	"repro/internal/engine"
	"repro/internal/netsim"
)

// stripeAlive is stripeAliveLocked behind a per-call read lock, for use
// while c.mu is not held (the BlockFixer's engine execution phase).
func (c *metaShard) stripeAlive(sm *stripeMeta) ec.AliveFunc {
	inner := c.stripeAliveLocked(sm)
	return func(pos int) bool {
		//repolint:ignore lockdiscipline per-read closure on the engine execution path: charging every survivor fetch to LockStats would drown the serving-path contention signal
		c.mu.RLock()
		defer c.mu.RUnlock()
		return inner(pos)
	}
}

// stripeFetch is stripeFetchLocked behind a per-call read lock, for use
// while c.mu is not held (the BlockFixer's engine execution phase).
func (c *metaShard) stripeFetch(sm *stripeMeta, dst int, record func(src int, bytes int64), scratch *engine.Scratch) ec.FetchFunc {
	inner := c.stripeFetchLocked(sm, dst, record, scratch)
	return func(req ec.ReadRequest) ([]byte, error) {
		//repolint:ignore lockdiscipline per-read closure on the engine execution path: charging every survivor fetch to LockStats would drown the serving-path contention signal
		c.mu.RLock()
		defer c.mu.RUnlock()
		return inner(req)
	}
}

// FixReport summarises one BlockFixer pass.
type FixReport struct {
	// ScannedBlocks is the number of block records examined.
	ScannedBlocks int
	// RepairedStriped counts striped blocks reconstructed via the codec.
	RepairedStriped int
	// ReReplicated counts replicated blocks copied from a surviving
	// replica.
	ReReplicated int
	// PartialSumRepairs counts stripe repairs delivered by the
	// partial-sum aggregation pipeline (always zero unless
	// Config.PartialSumRepair is set).
	PartialSumRepairs int
	// Unrecoverable lists blocks that could not be restored.
	Unrecoverable []BlockID
	// CrossRackBytes is the cross-rack traffic this pass generated.
	CrossRackBytes int64
	// SimulatedRepairSeconds holds, when Config.Fabric is set, the
	// contention-simulated completion time of each successful stripe
	// repair (in stripe-fix order): the pass's transfers replayed
	// concurrently through the netsim fabric under the engine's
	// parallelism bound.
	SimulatedRepairSeconds []float64
	// SimulatedMakespanSeconds is the simulated wall time for the
	// whole pass (zero when Config.Fabric is nil or nothing was
	// repaired).
	SimulatedMakespanSeconds float64
	// SimulatedParallelism is the concurrency bound the replay ran
	// under — Config.RepairParallelism, or GOMAXPROCS when that was 0.
	// Simulated times are only comparable across machines when the
	// bound matches.
	SimulatedParallelism int
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
// Passes are serialised against each other. In concurrent use,
// CrossRackBytes also includes recovery traffic from degraded reads
// that overlapped the pass.
func (c *metaShard) RunBlockFixer() (*FixReport, error) {
	c.fixerMu.Lock()
	defer c.fixerMu.Unlock()
	c.lockMeta()
	report := &FixReport{}
	before := c.net.CrossRackBytes()

	// Deterministic iteration: ascending block id.
	ids := make([]BlockID, 0, len(c.blocks))
	for id := range c.blocks {
		ids = append(ids, id)
	}
	slices.Sort(ids)

	lostByStripe := make(map[StripeID][]*blockMeta)
	var stripeOrder []StripeID
	for _, id := range ids {
		bm := c.blocks[id]
		report.ScannedBlocks++

		if bm.stripe != noStripe {
			if c.hasLiveLocation(bm) {
				continue
			}
			if _, seen := lostByStripe[bm.stripe]; !seen {
				stripeOrder = append(stripeOrder, bm.stripe)
			}
			lostByStripe[bm.stripe] = append(lostByStripe[bm.stripe], bm)
			continue
		}

		live := c.liveLocations(bm)
		target := c.cfg.Replication
		if len(live) >= target && len(live) > 0 {
			continue
		}
		if len(live) == 0 {
			report.Unrecoverable = append(report.Unrecoverable, id)
			continue
		}
		if err := c.reReplicateLocked(bm, live, target); err != nil {
			report.Unrecoverable = append(report.Unrecoverable, id)
			continue
		}
		report.ReReplicated++
	}

	simFn := c.repairStripes(lostByStripe, stripeOrder, report)
	report.CrossRackBytes = c.net.CrossRackBytes() - before
	c.mu.Unlock()
	if simFn != nil {
		if err := simFn(); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// repairStripes runs the stripe-repair pipeline for the given lost
// blocks — the shared engine behind a full RunBlockFixer pass and a
// targeted FixStripes call. It runs in three phases so many stripes
// decode concurrently through the engine. Planning (destination picks,
// which consume the cluster rng) stays serial in stripe order for
// determinism and holds the metadata lock; execution is a batch on
// the stripe-repair engine with the lock RELEASED — each fetch takes
// the read lock for its own duration, and the network fabric's byte
// accounting is thread-safe — so foreground reads interleave with
// the decodes; application (stores, onward shipping) retakes the
// lock and is serial again in stripe order.
//
// With PartialSumRepair set, single-block fixes of a linear-planning
// codec run as aggregation-tree folds instead of engine decodes; a
// pipeline that fails mid-fold (helper died) falls back to the
// conventional fan-in within its task.
//
// Callers hold fixerMu and c.mu exclusively; repairStripes returns
// with c.mu still held. The returned closure (nil unless a contention
// fabric is configured and fixes were applied) must be run after c.mu
// is released: it replays the recorded wire shape through the netsim
// fabric and fills the report's Simulated* fields.
func (c *metaShard) repairStripes(lostByStripe map[StripeID][]*blockMeta, stripeOrder []StripeID, report *FixReport) func() error {
	fixes := make([]*stripeFix, 0, len(stripeOrder))
	for _, sid := range stripeOrder {
		lost := lostByStripe[sid]
		fix, err := c.planStripeFixLocked(c.stripes[sid], lost)
		if err != nil {
			for _, bm := range lost {
				report.Unrecoverable = append(report.Unrecoverable, bm.id)
			}
			continue
		}
		fixes = append(fixes, fix)
	}
	outcomes := make([]fixOutcome, len(fixes))
	recordWire := c.cfg.Fabric != nil
	_, linearOK := c.cfg.Code.(ec.LinearRepairPlanner)
	// One task per fix, all submitted as a single engine batch so
	// conventional decodes and partial-sum folds share the parallelism
	// bound instead of draining in two phases.
	tasks := make([]func(*engine.Scratch) error, len(fixes))
	for i, f := range fixes {
		i, f := i, f
		// With a contention fabric configured, each fix records its
		// actual wire legs (fan-in transfers or fold-tree hops); one
		// recorder per fix, written only by the worker executing it.
		record := func(src int, bytes int64) {
			outcomes[i].transfers = append(outcomes[i].transfers, netsim.Transfer{Src: src, Bytes: bytes})
		}
		if !recordWire {
			record = nil
		}
		conventional := func(s *engine.Scratch) error {
			out := &outcomes[i]
			out.shards, out.err = c.cfg.Code.ExecuteMultiRepair(
				f.positions, f.sm.shardSize, c.stripeAlive(f.sm), c.stripeFetch(f.sm, f.worker(), record, s))
			return nil
		}
		if c.cfg.PartialSumRepair && linearOK && len(f.positions) == 1 {
			tasks[i] = func(s *engine.Scratch) error {
				shards, tree, err := c.executePartialFix(f, s)
				if err == nil {
					outcomes[i].shards, outcomes[i].tree = shards, tree
					return nil
				}
				return conventional(s)
			}
			continue
		}
		tasks[i] = conventional
	}
	c.mu.Unlock()
	c.eng.RunTasks(tasks)
	c.lockMeta()
	var applied []int
	for i, f := range fixes {
		if outcomes[i].err != nil {
			for _, bm := range f.lost {
				report.Unrecoverable = append(report.Unrecoverable, bm.id)
			}
			continue
		}
		repairedBefore := report.RepairedStriped
		c.applyStripeFixLocked(f, outcomes[i].shards, report)
		if outcomes[i].tree != nil && report.RepairedStriped > repairedBefore {
			report.PartialSumRepairs++
		}
		applied = append(applied, i)
	}
	if recordWire && len(applied) > 0 {
		return func() error {
			return c.simulateFixContention(fixes, outcomes, applied, report)
		}
	}
	return nil
}

// FixStripes repairs exactly the given stripes — the repair manager's
// targeted entry point, so a risk-prioritised queue can drain one
// stripe at a time instead of sweeping the whole namespace the way
// RunBlockFixer does. Lost blocks of each stripe run through the same
// three-phase pipeline (and the same partial-sum and contention-fabric
// behaviour) as a full fixer pass; stripes that turn out healthy are
// scanned and skipped. Unknown stripe ids are an error. Calls are
// serialised against full fixer passes by fixerMu.
func (c *metaShard) FixStripes(ids []StripeID) (*FixReport, error) {
	c.fixerMu.Lock()
	defer c.fixerMu.Unlock()
	c.lockMeta()
	report := &FixReport{}
	before := c.net.CrossRackBytes()
	lostByStripe := make(map[StripeID][]*blockMeta)
	var stripeOrder []StripeID
	seen := make(map[StripeID]bool, len(ids))
	for _, sid := range ids {
		if seen[sid] {
			continue
		}
		seen[sid] = true
		sm, ok := c.stripes[sid]
		if !ok {
			c.mu.Unlock()
			return nil, fmt.Errorf("hdfs: stripe %d not found", sid)
		}
		for _, bid := range sm.blocks {
			if bid < 0 {
				continue
			}
			bm := c.blocks[bid]
			report.ScannedBlocks++
			if c.hasLiveLocation(bm) {
				continue
			}
			if _, lost := lostByStripe[sid]; !lost {
				stripeOrder = append(stripeOrder, sid)
			}
			lostByStripe[sid] = append(lostByStripe[sid], bm)
		}
	}
	simFn := c.repairStripes(lostByStripe, stripeOrder, report)
	report.CrossRackBytes = c.net.CrossRackBytes() - before
	c.mu.Unlock()
	if simFn != nil {
		if err := simFn(); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// ReReplicateBlocks restores the replication target of exactly the
// given un-striped blocks — the repair manager's targeted counterpart
// to the fixer's re-replication sweep. Striped blocks are skipped
// (repair them via FixStripes); blocks already at target are scanned
// and skipped; blocks with no surviving replica are reported
// unrecoverable. Unknown block ids are skipped, not an error: the
// manager may hold a stale inventory of a machine whose blocks were
// since deleted.
func (c *metaShard) ReReplicateBlocks(ids []BlockID) (*FixReport, error) {
	c.fixerMu.Lock()
	defer c.fixerMu.Unlock()
	c.lockMeta()
	defer c.mu.Unlock()
	report := &FixReport{}
	before := c.net.CrossRackBytes()
	for _, id := range ids {
		bm, ok := c.blocks[id]
		if !ok || bm.stripe != noStripe {
			continue
		}
		report.ScannedBlocks++
		live := c.liveLocations(bm)
		target := c.cfg.Replication
		if len(live) >= target {
			continue
		}
		if len(live) == 0 {
			report.Unrecoverable = append(report.Unrecoverable, id)
			continue
		}
		if err := c.reReplicateLocked(bm, live, target); err != nil {
			report.Unrecoverable = append(report.Unrecoverable, id)
			continue
		}
		report.ReReplicated++
	}
	report.CrossRackBytes = c.net.CrossRackBytes() - before
	return report, nil
}

// fixOutcome is the execution-phase result of one planned stripe fix.
type fixOutcome struct {
	shards map[int][]byte
	err    error
	// transfers (fan-in legs) or the edges of tree (a fix the partial-sum
	// pipeline delivered) are what the contention replay runs; one is set.
	transfers []netsim.Transfer
	tree      *engine.AggPlan
}

// executePartialFix rebuilds the single lost block of a stripe in the
// tree shape: ask the codec for the linear plan, pin a live holder per
// helper position (pickReplica), lay the plan out as the rack-aware
// aggregation tree, and fold it in process (engine.FoldTree). Ranges are
// read into shard-sized buffers of the worker's arena, which hold
// whatever any store reads for any range; every tree edge and the final
// root → destination hop moves one shard-sized buffer through the
// network accounting. Runs with the metadata lock released; planning
// takes the read lock for its own duration (stripe position tables are
// immutable once created, and block I/O takes only datanode leaf locks).
func (c *metaShard) executePartialFix(f *stripeFix, scratch *engine.Scratch) (map[int][]byte, *engine.AggPlan, error) {
	pos, sm := f.positions[0], f.sm
	c.rlockMeta()
	plan, err := c.cfg.Code.(ec.LinearRepairPlanner).PlanLinearRepair(pos, sm.shardSize, c.stripeAliveLocked(sm))
	var tree *engine.AggPlan
	if err == nil {
		tree, err = engine.PlanRepairTree(plan, func(shard int) (int, bool, error) {
			id := sm.blocks[shard]
			if id < 0 {
				return 0, false, nil // phantom zero shard
			}
			live := c.liveLocations(c.blocks[id])
			if len(live) == 0 {
				return 0, false, fmt.Errorf("%w: stripe %d position %d", ErrBlockLost, sm.id, shard)
			}
			return c.pickReplica(live), true, nil
		}, c.cfg.Topology.RackOf)
	}
	c.mu.RUnlock()
	if err != nil {
		return nil, nil, err
	}
	read := func(machine int, req ec.ReadRequest) ([]byte, error) {
		return c.nodes[machine].readRangeInto(sm.blocks[req.Shard], req.Offset, req.Length, scratch.Bytes(int(sm.shardSize)))
	}
	carry := func(from, to int) error { return c.net.Transfer(from, to, sm.shardSize) }
	shard, err := tree.Repair(func(root *engine.AggNode) ([]byte, error) {
		return engine.FoldTree(root, f.worker(), sm.shardSize, read, carry)
	})
	if err != nil {
		return nil, nil, err
	}
	return map[int][]byte{pos: shard}, tree, nil
}

// simulateFixContention replays the applied fixes' recorded wire shape
// through the netsim fabric: all stripes submitted at time zero, FIFO,
// concurrency bounded by the repair engine's parallelism — the same
// shape the real pass executed with, but with every flow fair-sharing
// NICs, TOR links, and the aggregation switch. Conventional fixes
// replay as fan-ins; partial-sum fixes replay as their fold-tree hop
// pipelines.
func (c *metaShard) simulateFixContention(fixes []*stripeFix, outcomes []fixOutcome, applied []int, report *FixReport) error {
	sim, err := netsim.NewSimulator(c.cfg.fabricTopology())
	if err != nil {
		return err
	}
	sched := netsim.NewScheduler(sim, netsim.PolicyFIFO, c.eng.Parallelism())
	// Decode fan-ins first (IDs [0, len(applied))), then the onward
	// shipping legs of multi-block fixes: FIFO admission approximates
	// the real two-phase pass, where blocks ship only after decoding.
	for jobID, i := range applied {
		f := fixes[i]
		job := netsim.Job{ID: jobID, Dst: f.worker(), Transfers: append([]netsim.Transfer(nil), outcomes[i].transfers...)}
		if tree := outcomes[i].tree; tree != nil {
			job.Hops = tree.Hops(f.worker())
		}
		sched.Submit(job)
	}
	shipID := len(applied)
	for _, i := range applied {
		f := fixes[i]
		for j, bm := range f.lost {
			if dst := f.destinations[j]; dst != f.worker() {
				sched.Submit(netsim.Job{
					ID:        shipID,
					Dst:       dst,
					Transfers: []netsim.Transfer{{Src: f.worker(), Bytes: bm.size}},
				})
				shipID++
			}
		}
	}
	if err := sim.Run(math.Inf(1)); err != nil {
		return err
	}
	perFix := make([]float64, 0, len(applied))
	var makespan float64
	for _, r := range sched.Results() {
		if r.Finish > makespan {
			makespan = r.Finish
		}
		if r.ID < len(applied) {
			perFix = append(perFix, r.TotalSeconds())
		}
	}
	report.SimulatedRepairSeconds = perFix
	report.SimulatedMakespanSeconds = makespan
	report.SimulatedParallelism = c.eng.Parallelism()
	return nil
}

// excludeRacksLocked returns the racks hosting live blocks of the
// stripe, skipping the given block.
func (c *metaShard) excludeRacksLocked(sm *stripeMeta, skip BlockID) map[int]bool {
	exclude := make(map[int]bool)
	for _, peer := range sm.blocks {
		if peer < 0 || peer == skip {
			continue
		}
		for _, m := range c.liveLocations(c.blocks[peer]) {
			exclude[c.cfg.Topology.RackOf(m)] = true
		}
	}
	return exclude
}

// stripeFix is one planned stripe repair: which positions to rebuild
// and where each reconstructed block lands. The joint decode executes
// at the first destination (the worker); the other blocks are shipped
// onward from there.
type stripeFix struct {
	sm           *stripeMeta
	lost         []*blockMeta
	positions    []int
	destinations []int
}

// worker returns the machine the joint decode runs on.
func (f *stripeFix) worker() int { return f.destinations[0] }

// planStripeFixLocked picks a fresh-rack destination for every lost
// block of the stripe. Planning consumes the cluster rng, so callers
// must plan stripes in deterministic order.
func (c *metaShard) planStripeFixLocked(sm *stripeMeta, lost []*blockMeta) (*stripeFix, error) {
	exclude := c.excludeRacksLocked(sm, -1)
	fix := &stripeFix{
		sm:           sm,
		lost:         lost,
		positions:    make([]int, len(lost)),
		destinations: make([]int, len(lost)),
	}
	for i, bm := range lost {
		fix.positions[i] = bm.stripePos
		dst, err := c.pickLiveMachine(exclude)
		if err != nil {
			return nil, err
		}
		fix.destinations[i] = dst
		exclude[c.cfg.Topology.RackOf(dst)] = true
	}
	return fix, nil
}

// applyStripeFixLocked stores the reconstructed blocks at their planned
// destinations, shipping blocks onward from the decode worker, and
// accounts per block: a block that regained a live replica while the
// decode ran with the lock released (its machine was restored
// mid-pass) is left as it is; a block whose destination died mid-pass
// is recorded unrecoverable on its own, without disturbing the
// accounting of siblings in the same fix that did land.
func (c *metaShard) applyStripeFixLocked(f *stripeFix, shards map[int][]byte, report *FixReport) {
	worker := f.worker()
	for i, bm := range f.lost {
		if c.hasLiveLocation(bm) {
			continue
		}
		content := shards[bm.stripePos][:bm.size]
		dst := f.destinations[i]
		if dst != worker {
			if err := c.net.Transfer(worker, dst, bm.size); err != nil {
				report.Unrecoverable = append(report.Unrecoverable, bm.id)
				continue
			}
		}
		if err := c.nodes[dst].storeBlock(bm.id, content); err != nil {
			report.Unrecoverable = append(report.Unrecoverable, bm.id)
			continue
		}
		bm.locations = []int{dst}
		report.RepairedStriped++
	}
}

// reReplicateLocked copies a replicated block from a live replica until
// it reaches the target count, preferring fresh racks.
func (c *metaShard) reReplicateLocked(bm *blockMeta, live []int, target int) error {
	current := append([]int(nil), live...)
	for len(current) < target {
		exclude := make(map[int]bool)
		for _, m := range current {
			exclude[c.cfg.Topology.RackOf(m)] = true
		}
		dst, err := c.pickLiveMachine(exclude)
		if err != nil {
			return err
		}
		src := current[0]
		buf, err := c.nodes[src].readRange(bm.id, 0, bm.size)
		if err != nil {
			return err
		}
		if err := c.net.Transfer(src, dst, bm.size); err != nil {
			return err
		}
		if err := c.nodes[dst].storeBlock(bm.id, buf); err != nil {
			return err
		}
		current = append(current, dst)
	}
	bm.locations = current
	return nil
}
