// The autonomous repair manager: a control loop a serving namenode
// runs so recovery needs no manual triggers. Heartbeats feed the
// failure detector; detector transitions drive the health registry;
// the registry's degradations become risk-tiered queue entries; and a
// token-bucket throttle paces how fast the queue drains into the
// cluster's targeted repair paths (FixStripes, ReReplicateBlocks —
// which inherit the engine's concurrency and, when configured, the
// partial-sum aggregation trees, so throttled repairs still fold
// rack-locally).
//
// Every timestamp flows through the injectable clock, and Poll — one
// full control-loop iteration — is exported, so tests and simulations
// drive exact timelines with no wall-clock sleeps.
package repairmgr

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/hdfs"
	"repro/internal/reliability"
	"repro/internal/telemetry"
)

// Config parameterises a Manager. A zero SuspectAfter, PollInterval,
// ScrubSliceMachines, CompletedLog, or Clock selects the DefaultConfig
// value. GraceWindow, RepairBytesPerSec, AgingTier, and ScrubInterval
// are NOT defaulted — for each of them zero is a meaningful setting
// (eager repair, unthrottled, no aging, no scrubbing) — so start from
// DefaultConfig() and override to get the recommended windows.
type Config struct {
	// SuspectAfter and GraceWindow are the failure detector's timeouts
	// (see DetectorConfig). GraceWindow is the delayed-repair window:
	// kill-then-restart inside it produces zero repair traffic; ZERO
	// declares death (and starts repair) at the suspect deadline.
	SuspectAfter time.Duration
	GraceWindow  time.Duration
	// PollInterval is the live control loop's tick.
	PollInterval time.Duration
	// RepairBytesPerSec caps sustained cross-rack repair traffic
	// (token bucket); 0 leaves repair unthrottled. RepairBurstBytes is
	// the bucket capacity (default: one second of rate).
	RepairBytesPerSec float64
	RepairBurstBytes  float64
	// AgingTier is the queue time that promotes a waiting repair one
	// erasure tier (starvation aging); 0 disables aging.
	AgingTier time.Duration
	// ScrubInterval schedules incremental scrub slices through the
	// control loop; 0 disables background scrubbing.
	// ScrubSliceMachines is the slice width (default 1).
	ScrubInterval      time.Duration
	ScrubSliceMachines int
	// CompletedLog caps the completion log the status RPC exposes.
	CompletedLog int
	// Clock injects time; nil selects time.Now. Tests pass a fake.
	Clock func() time.Time
	// Telemetry, when non-nil, publishes the control plane's
	// instruments into the registry: poll/repair/grace-save counters
	// and queue-depth/throttle/degradation gauges.
	Telemetry *telemetry.Registry
}

// DefaultConfig returns production-flavoured settings: a 3s suspect
// timeout, a 15s grace window (transient restarts are free), a 500ms
// control tick, unthrottled repair, 10-minute aging tiers, no
// background scrubbing.
func DefaultConfig() Config {
	return Config{
		SuspectAfter: 3 * time.Second,
		GraceWindow:  15 * time.Second,
		PollInterval: 500 * time.Millisecond,
		AgingTier:    10 * time.Minute,
		CompletedLog: 256,
	}
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.SuspectAfter == 0 {
		c.SuspectAfter = def.SuspectAfter
	}
	if c.PollInterval == 0 {
		c.PollInterval = def.PollInterval
	}
	if c.CompletedLog == 0 {
		c.CompletedLog = def.CompletedLog
	}
	if c.ScrubSliceMachines == 0 {
		c.ScrubSliceMachines = 1
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// CompletedRepair is one finished queue entry, in completion order.
type CompletedRepair struct {
	Seq      int
	Kind     TaskKind
	Stripe   hdfs.StripeID
	Block    hdfs.BlockID
	Erasures int
	// Bytes is the cross-rack traffic the repair actually moved;
	// WaitSeconds how long the entry queued.
	Bytes       int64
	WaitSeconds float64
	// Unrecoverable reports the repair failed permanently.
	Unrecoverable bool
}

// Status is the control plane's externally visible state — what the
// serve layer's status RPC returns.
type Status struct {
	Nodes []NodeStatus
	// QueueDepth and QueueByErasures describe pending repairs.
	QueueDepth      int
	QueueByErasures map[int]int
	Paused          bool
	// DegradedStripes / DegradedBlocks are the health registry's view.
	DegradedStripes int
	DegradedBlocks  int
	// RepairsDone counts completed queue entries; RepairedBytes their
	// cross-rack traffic; Unrecoverable permanently failed entries.
	RepairsDone   int
	RepairedBytes int64
	Unrecoverable int
	// AvoidedRepairs / AvoidedRepairBytes count suspect→alive grace
	// saves: repairs that never ran because the node returned inside
	// the window (bytes are the at-suspect estimate).
	AvoidedRepairs     int
	AvoidedRepairBytes int64
	// LostBlocks counts un-striped blocks that lost every replica —
	// nothing to re-replicate from.
	LostBlocks int
	// ScrubSlices / ScrubbedReplicas / ScrubCorrupt summarise
	// background scrubbing.
	ScrubSlices      int
	ScrubbedReplicas int
	ScrubCorrupt     int
	// ThrottleBytesPerSec echoes the configured cap (0 = unlimited).
	ThrottleBytesPerSec float64
	// Completed is the completion log, oldest first, capped at
	// Config.CompletedLog.
	Completed []CompletedRepair
	// UptimeSeconds is the manager's age (per its injected clock).
	// SecondsSincePoll is how long ago the last Poll iteration
	// finished, -1 if none has: a large value on a long-uptime manager
	// means the control loop is stalled, not idle. PollCount counts
	// completed iterations.
	UptimeSeconds    float64
	SecondsSincePoll float64
	PollCount        int64
}

// lane is the per-shard slice of the control plane: one health
// registry and one repair queue over one metadata shard, so triage and
// draining for unrelated shards never contend on shared maps. A
// single-shard cluster has exactly one lane.
type lane struct {
	shard hdfs.RepairOps
	reg   *Registry
	queue *Queue
}

// Manager is the autonomous repair control plane over one metadata
// plane, which it consumes as the hdfs.Metadata interface and never as
// the concrete type. Detection is global (machines are not shardable);
// triage and queueing run in one lane per metadata shard of the plane
// (Shards() of them, one or more), and a stripe or block id finds its
// lane by the plane's own routing.
type Manager struct {
	cfg     Config
	cluster hdfs.Metadata
	det     *Detector
	lanes   []*lane
	bucket  *TokenBucket

	width, tolerance int // codec geometry
	dataShards       int

	// pollMu serialises whole Poll iterations: the Start ticker loop
	// and direct Poll callers (tests, benches) may overlap, and the
	// drain's peek-check-pop sequence must not interleave.
	pollMu sync.Mutex

	mu       sync.Mutex
	pending  []Transition // heartbeat-produced transitions awaiting Poll
	suspects map[int]suspectEstimate
	paused   bool

	started   time.Time // construction time, per cfg.Clock
	lastPoll  time.Time // zero until the first Poll completes
	pollCount int64

	// Telemetry counters (nil-safe no-ops when Config.Telemetry is
	// nil); gauges register directly against the registry in New.
	cPolls         *telemetry.Counter
	cRepairs       *telemetry.Counter
	cRepairedBytes *telemetry.Counter
	cAvoided       *telemetry.Counter
	cAvoidedBytes  *telemetry.Counter
	cUnrecoverable *telemetry.Counter

	repairsDone   int
	repairedBytes int64
	unrecoverable int
	avoided       int
	avoidedBytes  int64
	lostBlocks    int
	scrubSlices   int
	scrubScanned  int
	scrubCorrupt  int
	nextScrub     time.Time
	completed     []CompletedRepair
	completedSeq  int

	stop chan struct{}
	wg   sync.WaitGroup
}

// suspectEstimate is what a suspect node's death would cost — credited
// to the avoided counters if it returns inside the grace window.
type suspectEstimate struct {
	repairs int
	bytes   int64
}

// New builds a manager over the metadata plane, with one registry+queue
// lane per metadata shard. It does not start the control loop; call
// Start, or drive Poll directly.
func New(cluster hdfs.Metadata, cfg Config) (*Manager, error) {
	if cluster == nil {
		return nil, errors.New("repairmgr: cluster is required")
	}
	cfg = cfg.withDefaults()
	dcfg := DetectorConfig{SuspectAfter: cfg.SuspectAfter, GraceWindow: cfg.GraceWindow}
	now := cfg.Clock()
	det, err := NewDetector(cluster.Machines(), dcfg, now)
	if err != nil {
		return nil, err
	}
	code := cluster.Code()
	m := &Manager{
		cfg:        cfg,
		cluster:    cluster,
		det:        det,
		bucket:     NewTokenBucket(cfg.RepairBytesPerSec, cfg.RepairBurstBytes, now),
		width:      code.TotalShards(),
		tolerance:  code.ParityShards(),
		dataShards: code.DataShards(),
		suspects:   make(map[int]suspectEstimate),
		started:    now,
	}
	for i := 0; i < cluster.Shards(); i++ {
		shard := cluster.Shard(i)
		m.lanes = append(m.lanes, &lane{
			shard: shard,
			reg:   NewRegistry(shard),
			queue: NewQueue(QueueConfig{AgingTier: cfg.AgingTier}),
		})
	}
	if cfg.ScrubInterval > 0 {
		m.nextScrub = now.Add(cfg.ScrubInterval)
	}
	m.registerTelemetry()
	return m, nil
}

// registerTelemetry publishes the manager's instruments. Counters are
// incremented inline by the control loop; gauges read the live queue,
// throttle, and registry state at scrape time.
func (m *Manager) registerTelemetry() {
	reg := m.cfg.Telemetry
	if reg == nil {
		return
	}
	m.cPolls = reg.Counter("repair_polls_total")
	m.cRepairs = reg.Counter("repair_repairs_done_total")
	m.cRepairedBytes = reg.Counter("repair_repaired_bytes_total")
	m.cAvoided = reg.Counter("repair_avoided_repairs_total")
	m.cAvoidedBytes = reg.Counter("repair_avoided_bytes_total")
	m.cUnrecoverable = reg.Counter("repair_unrecoverable_total")

	reg.RegisterGauge("repair_queue_depth", func() float64 {
		return float64(m.QueueDepth())
	})
	for tier := 1; tier <= m.tolerance; tier++ {
		tier := tier
		reg.RegisterGauge(`repair_queue_depth{erasures="`+strconv.Itoa(tier)+`"}`, func() float64 {
			depth := 0
			for _, ln := range m.lanes {
				depth += ln.queue.DepthsByErasures()[tier]
			}
			return float64(depth)
		})
	}
	reg.RegisterGauge("repair_throttle_level_bytes", func() float64 {
		return m.bucket.Level(m.cfg.Clock())
	})
	reg.RegisterGauge("repair_throttle_bytes_per_sec", func() float64 {
		return m.bucket.Rate()
	})
	reg.RegisterGauge("repair_degraded_stripes", func() float64 {
		n := 0
		for _, ln := range m.lanes {
			n += ln.reg.DegradedStripes()
		}
		return float64(n)
	})
	reg.RegisterGauge("repair_degraded_blocks", func() float64 {
		n := 0
		for _, ln := range m.lanes {
			n += ln.reg.DegradedBlocks()
		}
		return float64(n)
	})
}

// laneForStripe returns the lane owning the stripe id.
func (m *Manager) laneForStripe(id hdfs.StripeID) *lane {
	return m.lanes[m.cluster.ShardOfStripe(id)]
}

// laneForBlock returns the lane owning the block id.
func (m *Manager) laneForBlock(id hdfs.BlockID) *lane {
	return m.lanes[m.cluster.ShardOfBlock(id)]
}

// Start launches the live control loop.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.stop != nil {
		m.mu.Unlock()
		return
	}
	m.stop = make(chan struct{})
	stop := m.stop
	m.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		ticker := time.NewTicker(m.cfg.PollInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				m.Poll()
			}
		}
	}()
}

// Stop terminates the control loop (idempotent). Queued repairs stay
// queued; a later Start resumes them.
func (m *Manager) Stop() {
	m.mu.Lock()
	stop := m.stop
	m.stop = nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		m.wg.Wait()
	}
}

// Pause suspends queue draining (detection, triage, and scrubbing
// continue); Resume lifts it.
//
//repolint:ignore deadexport ROADMAP 7: the managed_recovery workload drives the manager through a live System
func (m *Manager) Pause() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.paused = true
}

//repolint:ignore deadexport ROADMAP 7: the managed_recovery workload drives the manager through a live System
func (m *Manager) Resume() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.paused = false
}

// Heartbeat records a datanode heartbeat — the serve layer's
// dn.heartbeat RPC lands here. Resulting transitions (a suspect or
// dead node coming back) are processed by the next Poll.
func (m *Manager) Heartbeat(node int) error {
	trans, err := m.det.Heartbeat(node, m.cfg.Clock())
	if err != nil {
		return err
	}
	if len(trans) > 0 {
		m.mu.Lock()
		m.pending = append(m.pending, trans...)
		m.mu.Unlock()
	}
	return nil
}

// NodeState returns the detector's view of one machine.
//
//repolint:ignore deadexport ROADMAP 7: the managed_recovery workload drives the manager through a live System
func (m *Manager) NodeState(node int) NodeState { return m.det.State(node) }

// Poll runs one control-loop iteration: evaluate detector timeouts,
// process transitions, schedule due scrub slices, and drain the repair
// queue as far as the throttle allows. It returns the first repair
// execution error (detection and triage never fail). Safe for
// concurrent use: overlapping calls serialise.
func (m *Manager) Poll() error {
	m.pollMu.Lock()
	defer m.pollMu.Unlock()
	// Stamp completion on every exit path (including the paused early
	// return): SecondsSincePoll measures loop liveness, not work done.
	defer func() {
		end := m.cfg.Clock()
		m.mu.Lock()
		m.lastPoll = end
		m.pollCount++
		m.mu.Unlock()
		m.cPolls.Inc()
	}()
	now := m.cfg.Clock()

	m.mu.Lock()
	trans := m.pending
	m.pending = nil
	m.mu.Unlock()
	trans = append(trans, m.det.Evaluate(now)...)
	for _, tr := range trans {
		m.handleTransition(tr, now)
	}

	m.maybeScrub(now)

	m.mu.Lock()
	paused := m.paused
	m.mu.Unlock()
	if paused {
		return nil
	}

	// Drain every lane in parallel: lanes own disjoint metadata shards,
	// so their repairs never contend on a metadata lock; the shared
	// token bucket still paces the aggregate. Ready/Spend on the bucket
	// are not one atomic reservation, so concurrent lanes can overshoot
	// the burst by at most one repair each — the same slack a real
	// multi-writer throttle has.
	errs := make([]error, len(m.lanes))
	var wg sync.WaitGroup
	for i, ln := range m.lanes {
		wg.Add(1)
		go func(i int, ln *lane) {
			defer wg.Done()
			for {
				task, ok := ln.queue.Peek()
				if !ok {
					return
				}
				if !m.bucket.Ready(task.Bytes, m.cfg.Clock()) {
					return
				}
				ln.queue.Pop()
				if err := m.execute(ln, task); err != nil && errs[i] == nil {
					errs[i] = err
				}
			}
		}(i, ln)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// handleTransition routes one detector transition into the registry
// and queue.
func (m *Manager) handleTransition(tr Transition, now time.Time) {
	switch {
	case tr.To == StateSuspect:
		// Snapshot what this node's death WOULD cost, so a return
		// inside the grace window can credit the saving. Read-only
		// against the cluster; the registry is untouched until death.
		repairs, bytes := m.estimateMachineRepair(tr.Node)
		m.mu.Lock()
		m.suspects[tr.Node] = suspectEstimate{repairs: repairs, bytes: bytes}
		m.mu.Unlock()

	case tr.To == StateDead:
		m.mu.Lock()
		delete(m.suspects, tr.Node)
		m.mu.Unlock()
		m.examineAndEnqueue(tr.Node, now)

	case tr.To == StateAlive && tr.From == StateSuspect:
		m.mu.Lock()
		est, ok := m.suspects[tr.Node]
		delete(m.suspects, tr.Node)
		if ok && est.repairs > 0 {
			m.avoided += est.repairs
			m.avoidedBytes += est.bytes
		}
		m.mu.Unlock()
		if ok && est.repairs > 0 {
			m.cAvoided.Add(int64(est.repairs))
			m.cAvoidedBytes.Add(est.bytes)
		}

	case tr.To == StateAlive && tr.From == StateDead:
		// The node returned after repairs were enqueued: re-examine its
		// inventory, cancelling entries that recovered and refreshing
		// the rest.
		m.examineAndEnqueue(tr.Node, now)
	}
}

// examineAndEnqueue reconciles every lane's queue with its registry's
// fresh view of one machine's inventory — a machine death touches
// stripes in every shard, so all lanes examine it.
func (m *Manager) examineAndEnqueue(machine int, now time.Time) {
	for _, ln := range m.lanes {
		stripes, blocks := ln.reg.ExamineMachine(machine)
		for _, h := range stripes {
			m.reconcileStripe(ln, h, now)
		}
		for _, h := range blocks {
			m.reconcileBlock(ln, h, now)
		}
	}
}

// reconcileStripe turns one stripe-health change into a lane-queue
// upsert or cancellation.
func (m *Manager) reconcileStripe(ln *lane, h StripeHealth, now time.Time) {
	t := Task{Kind: TaskStripe, Stripe: h.Stripe}
	if h.Erasures == 0 {
		ln.queue.Remove(t.Key())
		return
	}
	t.Erasures = h.Erasures
	t.Tolerance = m.tolerance
	t.Bytes = h.ShardSize * int64(m.dataShards)
	t.Risk = m.lossRisk(m.width, m.tolerance, h.Erasures, float64(t.Bytes))
	t.Enqueued = now
	ln.queue.Upsert(t)
}

// reconcileBlock turns one replicated-block-health change into a
// lane-queue upsert or cancellation. Blocks with no surviving replica
// are lost, not repairable: counted, never queued.
func (m *Manager) reconcileBlock(ln *lane, h BlockHealth, now time.Time) {
	t := Task{Kind: TaskReplicated, Block: h.Block}
	if h.MissingReplicas == 0 {
		ln.queue.Remove(t.Key())
		return
	}
	if h.LiveReplicas == 0 {
		ln.queue.Remove(t.Key())
		m.mu.Lock()
		m.lostBlocks++
		m.mu.Unlock()
		return
	}
	target := m.cluster.Replication()
	t.Erasures = h.MissingReplicas
	t.Tolerance = target - 1
	t.Bytes = h.Size * int64(h.MissingReplicas)
	t.Risk = m.lossRisk(target, target-1, h.MissingReplicas, float64(t.Bytes))
	t.Enqueued = now
	ln.queue.Upsert(t)
}

// estimateMachineRepair sizes the repair work THIS machine's death
// would enqueue, without touching the registry. Only degradation the
// machine itself causes counts: a target already degraded by some
// OTHER failure (a queued repair exists for it) will be repaired
// whether or not this node returns, so crediting it to this node's
// grace save would overstate the window's savings — if anything this
// under-credits the node's marginal share of a multi-failure repair,
// which is the honest direction for a savings metric.
func (m *Manager) estimateMachineRepair(machine int) (repairs int, bytes int64) {
	target := m.cluster.Replication()
	seen := make(map[hdfs.StripeID]bool)
	for _, bid := range m.cluster.BlocksOn(machine) {
		info, ok := m.cluster.BlockInfoByID(bid)
		if !ok {
			continue
		}
		if info.Stripe >= 0 {
			// Striped: at risk due to us only if our replica is the
			// one with no live holder, and no repair is already
			// pending for the stripe.
			if len(info.Locations) != 0 || seen[info.Stripe] {
				continue
			}
			seen[info.Stripe] = true
			if m.laneForStripe(info.Stripe).queue.Contains((&Task{Kind: TaskStripe, Stripe: info.Stripe}).Key()) {
				continue
			}
			detail, err := m.cluster.Stripe(info.Stripe)
			if err != nil {
				continue
			}
			repairs++
			bytes += detail.ShardSize * int64(m.dataShards)
			continue
		}
		// Replicated: under target with our copy among the missing and
		// no re-replication already pending. The credited bytes are
		// the ONE replica this node's return restores, not the block's
		// whole deficit (other missing replicas repair regardless).
		live := len(info.Locations)
		if live == 0 || live >= target {
			continue
		}
		ours := false
		for _, loc := range info.Locations {
			if loc == machine {
				ours = true
			}
		}
		if ours || m.laneForBlock(bid).queue.Contains((&Task{Kind: TaskReplicated, Block: bid}).Key()) {
			continue
		}
		repairs++
		bytes += info.Size
	}
	return repairs, bytes
}

// lossRisk is the MTTDL-derived loss rate (per hour) of the CURRENT
// degraded state: the birth-death chain of §3.2 restarted at the
// remaining redundancy, so each additional erasure multiplies the risk
// by roughly the chain's repair-to-failure rate ratio. Repair bytes
// feed the repair rate — bigger stripes repair slower and rank
// riskier. States at or beyond the tolerance pin to the bare
// time-to-next-failure.
func (m *Manager) lossRisk(nodes, tolerance, erasures int, repairBytes float64) float64 {
	remaining := tolerance - erasures
	if remaining < 0 {
		remaining = 0
	}
	remNodes := nodes - erasures
	if remNodes <= remaining {
		remNodes = remaining + 1
	}
	if repairBytes < 1 {
		repairBytes = 1
	}
	sys := reliability.System{
		Name:            "degraded",
		Nodes:           remNodes,
		Tolerance:       remaining,
		RepairBytes:     repairBytes,
		StorageOverhead: 1,
	}
	hours, err := reliability.MTTDLHours(sys, reliability.DefaultParams())
	if err != nil || hours <= 0 {
		return 1 // pessimistic fallback: one loss per hour
	}
	return 1 / hours
}

// maybeScrub runs one incremental scrub slice when due, feeding any
// corruption it finds into the triage path.
func (m *Manager) maybeScrub(now time.Time) {
	if m.cfg.ScrubInterval <= 0 {
		return
	}
	m.mu.Lock()
	due := !now.Before(m.nextScrub)
	if due {
		m.nextScrub = now.Add(m.cfg.ScrubInterval)
	}
	m.mu.Unlock()
	if !due {
		return
	}
	rep, err := m.cluster.RunScrubberSlice(m.cfg.ScrubSliceMachines)
	if err != nil {
		return
	}
	m.mu.Lock()
	m.scrubSlices++
	m.scrubScanned += rep.ScannedReplicas
	m.scrubCorrupt += rep.CorruptReplicas
	m.mu.Unlock()
	if len(rep.AffectedBlocks) == 0 {
		return
	}
	// Route each affected block to the lane owning it, then let each
	// lane's registry triage its own group.
	byLane := make(map[*lane][]hdfs.BlockID)
	for _, bid := range rep.AffectedBlocks {
		ln := m.laneForBlock(bid)
		byLane[ln] = append(byLane[ln], bid)
	}
	for ln, group := range byLane {
		stripes, blocks := ln.reg.ExamineBlocks(group)
		for _, h := range stripes {
			m.reconcileStripe(ln, h, now)
		}
		for _, h := range blocks {
			m.reconcileBlock(ln, h, now)
		}
	}
}

// execute runs one popped task against the owning shard and accounts
// it. Running on the lane's shard (not the whole cluster) keeps
// parallel lane drains contention-free.
func (m *Manager) execute(ln *lane, task Task) error {
	var (
		rep *hdfs.FixReport
		err error
	)
	switch task.Kind {
	case TaskStripe:
		rep, err = ln.shard.FixStripes([]hdfs.StripeID{task.Stripe})
	case TaskReplicated:
		rep, err = ln.shard.ReReplicateBlocks([]hdfs.BlockID{task.Block})
	default:
		return fmt.Errorf("repairmgr: unknown task kind %v", task.Kind)
	}
	now := m.cfg.Clock()
	done := CompletedRepair{
		Kind:        task.Kind,
		Stripe:      task.Stripe,
		Block:       task.Block,
		Erasures:    task.Erasures,
		WaitSeconds: now.Sub(task.Enqueued).Seconds(),
	}
	if err != nil {
		// The target vanished (stripe deleted mid-flight): clear the
		// registry entry and move on.
		done.Unrecoverable = true
	} else {
		done.Bytes = rep.CrossRackBytes
		done.Unrecoverable = len(rep.Unrecoverable) > 0
		m.bucket.Spend(rep.CrossRackBytes, now)
	}
	// Refresh the lane's registry so a clean repair clears its entry
	// and a partial one stays visible (it re-enqueues when the next
	// event touches it).
	switch task.Kind {
	case TaskStripe:
		ln.reg.MarkStripeRepaired(task.Stripe)
	case TaskReplicated:
		ln.reg.MarkBlockRepaired(task.Block)
	}
	m.mu.Lock()
	m.completedSeq++
	done.Seq = m.completedSeq
	m.repairsDone++
	m.repairedBytes += done.Bytes
	if done.Unrecoverable {
		m.unrecoverable++
	}
	m.completed = append(m.completed, done)
	if over := len(m.completed) - m.cfg.CompletedLog; over > 0 {
		m.completed = append([]CompletedRepair(nil), m.completed[over:]...)
	}
	m.mu.Unlock()
	m.cRepairs.Inc()
	m.cRepairedBytes.Add(done.Bytes)
	if done.Unrecoverable {
		m.cUnrecoverable.Inc()
	}
	return err
}

// QueueDepth returns the number of pending repairs across all lanes.
func (m *Manager) QueueDepth() int {
	depth := 0
	for _, ln := range m.lanes {
		depth += ln.queue.Len()
	}
	return depth
}

// Lanes returns the number of shard lanes the manager drains.
//
//repolint:ignore deadexport ROADMAP 7: the managed_recovery workload drives the manager through a live System
func (m *Manager) Lanes() int { return len(m.lanes) }

// Status snapshots the control plane, merged across lanes.
func (m *Manager) Status() Status {
	s := Status{
		Nodes:               m.det.Snapshot(),
		QueueByErasures:     make(map[int]int),
		ThrottleBytesPerSec: m.bucket.Rate(),
	}
	for _, ln := range m.lanes {
		s.QueueDepth += ln.queue.Len()
		for erasures, n := range ln.queue.DepthsByErasures() {
			s.QueueByErasures[erasures] += n
		}
		s.DegradedStripes += ln.reg.DegradedStripes()
		s.DegradedBlocks += ln.reg.DegradedBlocks()
	}
	now := m.cfg.Clock()
	m.mu.Lock()
	defer m.mu.Unlock()
	s.UptimeSeconds = now.Sub(m.started).Seconds()
	if m.lastPoll.IsZero() {
		s.SecondsSincePoll = -1
	} else {
		s.SecondsSincePoll = now.Sub(m.lastPoll).Seconds()
	}
	s.PollCount = m.pollCount
	s.Paused = m.paused
	s.RepairsDone = m.repairsDone
	s.RepairedBytes = m.repairedBytes
	s.Unrecoverable = m.unrecoverable
	s.AvoidedRepairs = m.avoided
	s.AvoidedRepairBytes = m.avoidedBytes
	s.LostBlocks = m.lostBlocks
	s.ScrubSlices = m.scrubSlices
	s.ScrubbedReplicas = m.scrubScanned
	s.ScrubCorrupt = m.scrubCorrupt
	s.Completed = append([]CompletedRepair(nil), m.completed...)
	return s
}
