// The autonomous repair manager: the control loop every serving
// namenode runs, the system's one recovery driver. Heartbeats feed the
// failure detector, and replicas the namenode evicted on a reader's
// report (ReplicaEvicted) are the other input; detector transitions and
// evictions name the targets to re-examine against the metadata plane;
// the repair queue holds every target found degraded, risk-ordered;
// and each poll drains the queue, one target at a time, into the
// cluster's targeted repair paths (FixStripes, ReReplicateBlocks),
// re-examining each target after its repair, so one still degraded
// stays queued for the next poll. An operator's "repair now" is
// RepairNow: one full fixer pass, then a re-examination of the queue.
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
// or Clock selects the DefaultConfig value. GraceWindow is NOT
// defaulted — zero is a meaningful setting (eager repair) — so start
// from DefaultConfig() and override to get the recommended window.
type Config struct {
	// SuspectAfter and GraceWindow are the failure detector's timeouts
	// (see DetectorConfig). GraceWindow is the delayed-repair window:
	// kill-then-restart inside it produces zero repair traffic; ZERO
	// declares death (and starts repair) at the suspect deadline.
	SuspectAfter time.Duration
	GraceWindow  time.Duration
	// PollInterval is the live control loop's tick.
	PollInterval time.Duration
	// Clock injects time; nil selects time.Now. Tests pass a fake.
	Clock func() time.Time
	// Telemetry, when non-nil, publishes the control plane's
	// instruments into the registry: poll/repair/grace-save counters
	// and queue-depth/degradation gauges.
	Telemetry *telemetry.Registry
}

// DefaultConfig returns the settings every serving System runs: a 3s
// suspect timeout, the paper's 15-minute grace window (its cluster
// starts recovering a machine only after 15 minutes of unavailability,
// Fig. 3a, so a machine back inside it costs no repair traffic) and a
// 500ms control tick. A replica evicted on a reader's report is
// repaired at the next tick, grace window or not: its machine is
// alive, and nothing will bring the replica back.
func DefaultConfig() Config {
	return Config{
		SuspectAfter: 3 * time.Second,
		GraceWindow:  15 * time.Minute,
		PollInterval: 500 * time.Millisecond,
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
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// completedLog caps the completion log the status RPC exposes.
const completedLog = 256

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
	// QueueDepth and QueueByErasures describe pending repairs: every
	// queued target but the lost blocks.
	QueueDepth      int
	QueueByErasures map[int]int
	Paused          bool
	// DegradedStripes / DegradedBlocks count the queue's entries by
	// kind: every stripe and replicated block known degraded, a failed
	// repair's included, until a re-examination finds it healthy.
	DegradedStripes int
	DegradedBlocks  int
	// RepairsDone counts queue entries whose repair found work: a block
	// rebuilt or re-replicated, or one it could not restore (an entry
	// whose target had healed or been raided since is not counted).
	// RepairedBytes is their cross-rack traffic plus every RepairNow
	// pass's; Unrecoverable counts permanently failed entries plus the
	// blocks RepairNow passes could not restore.
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
	// Completed is the completion log, oldest first: the last
	// completedLog entries.
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

// Manager is the autonomous repair control plane over one metadata
// plane: one failure detector and one risk-ordered repair queue of
// every known degradation.
type Manager struct {
	cfg     Config
	cluster *hdfs.Cluster
	det     *Detector

	width, tolerance int // codec geometry
	dataShards       int

	// pollMu serialises whole Poll iterations and RepairNow: the Start
	// ticker loop and direct Poll callers (tests, benches) may overlap,
	// and only they change the queue, so a poll's sorted drain order
	// holds while it runs.
	pollMu sync.Mutex

	mu       sync.Mutex
	pending  []Transition    // heartbeat-produced transitions awaiting Poll
	evicted  []hdfs.BlockID  // blocks a report cost a replica, awaiting Poll
	queue    map[target]Task // every known degradation
	seq      int64           // counts new queue entries: their first-queued order
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

// New builds a manager over the metadata plane. It does not start the
// control loop; call Start, or drive Poll directly.
func New(cluster *hdfs.Cluster, cfg Config) (*Manager, error) {
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
		queue:      make(map[target]Task),
		width:      code.TotalShards(),
		tolerance:  code.ParityShards(),
		dataShards: code.DataShards(),
		suspects:   make(map[int]suspectEstimate),
		started:    now,
	}
	m.registerTelemetry()
	return m, nil
}

// registerTelemetry publishes the manager's instruments. Counters are
// incremented inline by the control loop; gauges read the live queue
// at snapshot time.
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
		reg.RegisterGauge(`repair_queue_depth{erasures="`+strconv.Itoa(tier)+`"}`, func() float64 {
			_, tiers := m.queueDepths()
			return float64(tiers[tier])
		})
	}
	reg.RegisterGauge("repair_degraded_stripes", func() float64 {
		stripes, _ := m.degraded()
		return float64(stripes)
	})
	reg.RegisterGauge("repair_degraded_blocks", func() float64 {
		_, blocks := m.degraded()
		return float64(blocks)
	})
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

// Pause suspends queue draining (detection and triage, evictions
// included, continue); Resume lifts it. RepairNow runs either way.
//
//repolint:ignore deadexport test control for TestManagerPriorityOrdering, TestQueueDepthGaugesMatchStatus and serve's TestManagedPriorityOrderingViaStatusRPC
func (m *Manager) Pause() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.paused = true
}

//repolint:ignore deadexport test control for TestManagerPriorityOrdering, TestQueueDepthGaugesMatchStatus and serve's TestManagedPriorityOrderingViaStatusRPC
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

// ReplicaEvicted records that the namenode evicted a replica of block
// id (hdfs.Cluster.VerifyReplica, on a reader's report). Like a
// heartbeat's transitions, the block waits for the next Poll, which
// re-examines its health and queues its repair.
func (m *Manager) ReplicaEvicted(id hdfs.BlockID) {
	m.mu.Lock()
	m.evicted = append(m.evicted, id)
	m.mu.Unlock()
}

// Poll runs one control-loop iteration: evaluate detector timeouts,
// process transitions, triage the blocks evictions left short, and
// drain the repair queue. It returns the first repair execution error
// (detection and triage never fail). Safe for concurrent use:
// overlapping calls serialise.
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
	trans, evicted := m.pending, m.evicted
	m.pending, m.evicted = nil, nil
	m.mu.Unlock()
	trans = append(trans, m.det.Evaluate(now)...)
	for _, tr := range trans {
		m.handleTransition(tr, now)
	}
	m.examineBlocks(evicted, now)

	m.mu.Lock()
	paused := m.paused
	m.mu.Unlock()
	if paused {
		return nil
	}

	// Drain the queue in risk order; an entry leaves it when the
	// re-examination after its repair finds the target healthy.
	var first error
	for _, task := range m.repairOrder() {
		if err := m.execute(task); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RepairNow runs one full BlockFixer pass — every lost block the
// cluster knows of, the grace window notwithstanding and whether or not
// the queue is paused — and then re-examines every queued target
// against what the pass did: entries it made healthy go, its bytes and
// unrecoverable blocks join the status, and suspect nodes lose their
// grace-window estimates, since a node that returns now saves nothing
// the pass has not already spent. The pass is one call, so stripes
// decode concurrently on the engine as in any fixer pass. It holds
// pollMu, so no Poll drains the queue while it runs.
func (m *Manager) RepairNow() (*hdfs.FixReport, error) {
	m.pollMu.Lock()
	defer m.pollMu.Unlock()
	rep, err := m.cluster.RunBlockFixer()
	if err != nil {
		return nil, err
	}
	m.examineKnown(m.cfg.Clock())
	m.mu.Lock()
	clear(m.suspects)
	m.repairedBytes += rep.CrossRackBytes
	m.unrecoverable += len(rep.Unrecoverable)
	m.mu.Unlock()
	m.cRepairedBytes.Add(rep.CrossRackBytes)
	m.cUnrecoverable.Add(int64(len(rep.Unrecoverable)))
	return rep, nil
}

// handleTransition routes one detector transition into the queue.
func (m *Manager) handleTransition(tr Transition, now time.Time) {
	switch {
	case tr.To == StateSuspect:
		// Snapshot what this node's death WOULD cost, so a return
		// inside the grace window can credit the saving. Read-only
		// against the cluster; the queue is untouched until death.
		repairs, bytes := m.estimateMachineRepair(tr.Node)
		m.mu.Lock()
		m.suspects[tr.Node] = suspectEstimate{repairs: repairs, bytes: bytes}
		m.mu.Unlock()

	case tr.To == StateDead:
		m.mu.Lock()
		delete(m.suspects, tr.Node)
		m.mu.Unlock()
		m.examineMachine(tr.Node, now)

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
		// inventory, dropping entries that recovered and refreshing
		// the rest.
		m.examineMachine(tr.Node, now)
	}
}

// examineMachine re-examines everything recorded on the machine — its
// death adds erasures, its return removes them.
func (m *Manager) examineMachine(machine int, now time.Time) {
	inv := m.cluster.MachineInventory(machine)
	for _, sid := range inv.Stripes {
		m.examine(target{TaskStripe, int64(sid)}, now)
	}
	for _, bid := range inv.Replicated {
		m.examine(target{TaskReplicated, int64(bid)}, now)
	}
}

// examineBlocks re-examines blocks that lost a replica to an eviction;
// a striped block stands for its stripe.
func (m *Manager) examineBlocks(ids []hdfs.BlockID, now time.Time) {
	for _, bid := range ids {
		info, ok := m.cluster.BlockInfoByID(bid)
		if !ok {
			continue
		}
		key := target{TaskReplicated, int64(bid)}
		if info.Stripe >= 0 {
			key = target{TaskStripe, int64(info.Stripe)}
		}
		m.examine(key, now)
	}
}

// examineKnown re-examines every queued target — after a full fixer
// pass, which repairs without going through the queue.
func (m *Manager) examineKnown(now time.Time) {
	m.mu.Lock()
	keys := make([]target, 0, len(m.queue))
	for key := range m.queue {
		keys = append(keys, key)
	}
	m.mu.Unlock()
	for _, key := range keys {
		m.examine(key, now)
	}
}

// examine recomputes one target's erasure count from the metadata
// plane and brings its queue entry up to date: a degraded target is
// upserted with its loss risk, a healthy or vanished one — or a
// replicated block raided since, whose stripe now stands for it —
// leaves the queue. A stripe's repair downloads dataShards blocks and
// a block's its missing replicas, which sizes the risk (a bigger
// repair takes longer).
func (m *Manager) examine(key target, now time.Time) {
	t := Task{Kind: key.kind, Enqueued: now}
	if key.kind == TaskStripe {
		t.Stripe = hdfs.StripeID(key.id)
		detail, err := m.cluster.Stripe(t.Stripe)
		if err == nil {
			for _, p := range detail.Positions {
				if p.Block >= 0 && len(p.Locations) == 0 {
					t.Erasures++
				}
			}
			bytes := detail.ShardSize * int64(m.dataShards)
			t.Risk = m.lossRisk(m.width, m.tolerance, t.Erasures, float64(bytes))
		}
	} else {
		t.Block = hdfs.BlockID(key.id)
		info, ok := m.cluster.BlockInfoByID(t.Block)
		if ok && info.Stripe < 0 {
			replicas := m.cluster.Replication()
			t.Erasures = max(replicas-len(info.Locations), 0)
			t.lost = len(info.Locations) == 0
			bytes := info.Size * int64(t.Erasures)
			t.Risk = m.lossRisk(replicas, replicas-1, t.Erasures, float64(bytes))
		}
	}
	if t.Erasures == 0 {
		m.cancel(key)
		return
	}
	m.upsert(t)
}

// estimateMachineRepair sizes the repair work THIS machine's death
// would enqueue, without touching the queue. Only degradation the
// machine itself causes counts: a target already degraded by some
// OTHER failure (it is queued) will be repaired
// whether or not this node returns, so crediting it to this node's
// grace save would overstate the window's savings — if anything this
// under-credits the node's marginal share of a multi-failure repair,
// which is the honest direction for a savings metric.
func (m *Manager) estimateMachineRepair(machine int) (repairs int, bytes int64) {
	replicas := m.cluster.Replication()
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
			if m.isQueued(target{TaskStripe, int64(info.Stripe)}) {
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
		if live == 0 || live >= replicas {
			continue
		}
		ours := false
		for _, loc := range info.Locations {
			if loc == machine {
				ours = true
			}
		}
		if ours || m.isQueued(target{TaskReplicated, int64(bid)}) {
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

// execute runs one queued repair, re-examines its target and accounts
// it. A repair that found nothing to do — a stripe already healthy, or
// a replicated block raided since it was queued, which re-replication
// skips — books nothing, and neither does a retry that fails at the
// erasure count its target last failed at, so a stuck entry is one
// line of the completion log, not one a poll. A target the repair did
// not heal stays queued for the next poll.
func (m *Manager) execute(task Task) error {
	var (
		rep *hdfs.FixReport
		err error
	)
	switch task.Kind {
	case TaskStripe:
		rep, err = m.cluster.FixStripes([]hdfs.StripeID{task.Stripe})
	case TaskReplicated:
		rep, err = m.cluster.ReReplicateBlocks([]hdfs.BlockID{task.Block})
	default:
		return fmt.Errorf("repairmgr: unknown task kind %v", task.Kind)
	}
	now := m.cfg.Clock()
	key := task.target()
	m.examine(key, now)
	if err == nil && rep.RepairedStriped == 0 && rep.ReReplicated == 0 && len(rep.Unrecoverable) == 0 {
		return nil
	}
	done := CompletedRepair{
		Kind:        task.Kind,
		Stripe:      task.Stripe,
		Block:       task.Block,
		Erasures:    task.Erasures,
		WaitSeconds: now.Sub(task.Enqueued).Seconds(),
		// An error means the target vanished (stripe deleted
		// mid-flight); the re-examination dropped it.
		Unrecoverable: err != nil || len(rep.Unrecoverable) > 0,
	}
	if err == nil {
		done.Bytes = rep.CrossRackBytes
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if done.Unrecoverable {
		if t, ok := m.queue[key]; ok {
			t.failedAt = task.Erasures
			m.queue[key] = t
		}
		if task.failedAt == task.Erasures {
			return err
		}
		m.unrecoverable++
		m.cUnrecoverable.Inc()
	}
	m.completedSeq++
	done.Seq = m.completedSeq
	m.repairsDone++
	m.repairedBytes += done.Bytes
	m.completed = append(m.completed, done)
	if over := len(m.completed) - completedLog; over > 0 {
		m.completed = append([]CompletedRepair(nil), m.completed[over:]...)
	}
	m.cRepairs.Inc()
	m.cRepairedBytes.Add(done.Bytes)
	return err
}

// QueueDepth returns the number of pending repairs.
func (m *Manager) QueueDepth() int {
	depth, _ := m.queueDepths()
	return depth
}

// Status snapshots the control plane.
func (m *Manager) Status() Status {
	s := Status{Nodes: m.det.Snapshot()}
	s.QueueDepth, s.QueueByErasures = m.queueDepths()
	s.DegradedStripes, s.DegradedBlocks = m.degraded()
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
	s.Completed = append([]CompletedRepair(nil), m.completed...)
	return s
}
