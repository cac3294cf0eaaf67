// Package repairmgr is the autonomous repair control plane: the layer
// that turns the repair machinery (codecs, stripe-repair engine,
// targeted block fixer) into a self-healing system with no manual
// triggers.
//
// The paper's operational finding is that recovery is a continuous
// background process — a median of ~180 TB/day of cross-rack repair
// traffic, dominated by single-block failures that are often transient
// and arrive in bursts that contend with foreground jobs. Two design
// consequences, each a component here:
//
//   - Machine failures must be DETECTED, not reported: a heartbeat
//     Detector tracks every datanode through alive → suspect → dead, and the
//     suspect state is a deliberate delayed-repair grace window —
//     machines that return within it (the common case, §2.2; see also
//     the HDFS-RAID delayed-repair rationale in "XORing Elephants")
//     trigger zero repair traffic.
//
//   - Repairs must be TRIAGED: node deaths and corruptions name the
//     stripes and blocks to re-examine, the repair queue holds every
//     one found degraded, and each poll repairs the stripes closest to
//     data loss first (erasures against the codec's tolerance, weighted
//     by the MTTDL-derived loss risk of the degraded state) — most
//     affected stripes miss one block, so the rare multi-erasure ones
//     jump the line. A target leaves the queue only when a
//     re-examination finds it healthy, so a failed repair is retried.
//
// A rotted replica is the one failure a reader reports: the namenode
// re-verifies it, evicts it, and hands the block to the Manager
// (ReplicaEvicted), which triages it into the same queue.
//
// The Manager ties them together in a poll loop that a serving
// namenode runs; every component takes explicit timestamps, so tests
// drive exact timelines with a fake clock and never sleep.
package repairmgr

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// NodeState is a datanode's position in the failure detector's
// lifecycle.
type NodeState int

const (
	// StateAlive: heartbeats arriving within SuspectAfter.
	StateAlive NodeState = iota
	// StateSuspect: silent past SuspectAfter — inside the delayed-repair
	// grace window. No repair is scheduled yet; a heartbeat cancels the
	// pending work at zero cost.
	StateSuspect
	// StateDead: silent past SuspectAfter + GraceWindow — repairs for
	// everything the node holds are enqueued.
	StateDead
)

func (s NodeState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
}

// MarshalText and UnmarshalText carry a state by its name, so the
// serve layer's repair.status reply says "dead", not 2.
func (s NodeState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

func (s *NodeState) UnmarshalText(b []byte) error {
	for v := StateAlive; v <= StateDead; v++ {
		if v.String() == string(b) {
			*s = v
			return nil
		}
	}
	return fmt.Errorf("repairmgr: unknown node state %q", b)
}

// DetectorConfig sets the detector's two timeouts.
type DetectorConfig struct {
	// SuspectAfter is the heartbeat silence that moves a node from
	// alive to suspect.
	SuspectAfter time.Duration
	// GraceWindow is the additional silence that moves a suspect node
	// to dead — the delayed-repair window. Zero declares death at the
	// first evaluation past SuspectAfter (eager repair).
	GraceWindow time.Duration
}

// Validate reports whether the configuration is usable.
func (c DetectorConfig) Validate() error {
	if c.SuspectAfter <= 0 {
		return errors.New("repairmgr: SuspectAfter must be positive")
	}
	if c.GraceWindow < 0 {
		return errors.New("repairmgr: GraceWindow must be >= 0")
	}
	return nil
}

// Transition is one observed state change.
type Transition struct {
	Node     int
	From, To NodeState
	// At is when the transition logically happened: for timeouts this
	// is the deadline itself (lastBeat+SuspectAfter, suspectAt+
	// GraceWindow), not the evaluation instant, so late evaluations
	// still produce exact timelines.
	At time.Time
}

// nodeRecord is the detector's per-node state.
type nodeRecord struct {
	state    NodeState
	lastBeat time.Time
	// suspectAt is when the node entered (or would have entered) the
	// suspect state: lastBeat + SuspectAfter.
	suspectAt time.Time
}

// Detector is the heartbeat failure detector. It is passive: callers
// feed it heartbeats and evaluation instants with explicit timestamps,
// and it answers with the transitions those imply. All methods are
// safe for concurrent use.
type Detector struct {
	cfg DetectorConfig

	mu    sync.Mutex
	nodes []nodeRecord
}

// NewDetector tracks n nodes, all alive with a heartbeat registered at
// now.
func NewDetector(n int, cfg DetectorConfig, now time.Time) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, errors.New("repairmgr: detector needs at least one node")
	}
	d := &Detector{cfg: cfg, nodes: make([]nodeRecord, n)}
	for i := range d.nodes {
		d.nodes[i] = nodeRecord{state: StateAlive, lastBeat: now}
	}
	return d, nil
}

// Heartbeat records a beat from the node. A suspect or dead node
// returns to alive, yielding the corresponding transition — the
// suspect→alive case is the grace window doing its job.
func (d *Detector) Heartbeat(node int, now time.Time) ([]Transition, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if node < 0 || node >= len(d.nodes) {
		return nil, fmt.Errorf("repairmgr: heartbeat from unknown node %d", node)
	}
	rec := &d.nodes[node]
	// Beats can arrive out of order from a retrying sender; never move
	// the clock backwards.
	if now.After(rec.lastBeat) {
		rec.lastBeat = now
	}
	if rec.state == StateAlive {
		return nil, nil
	}
	tr := Transition{Node: node, From: rec.state, To: StateAlive, At: now}
	rec.state = StateAlive
	return []Transition{tr}, nil
}

// Evaluate advances timeouts to now, returning every transition they
// imply in node order. A node whose silence spans both deadlines emits
// alive→suspect and suspect→dead in one call, each stamped with its
// own deadline.
func (d *Detector) Evaluate(now time.Time) []Transition {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []Transition
	for i := range d.nodes {
		rec := &d.nodes[i]
		if rec.state == StateAlive {
			deadline := rec.lastBeat.Add(d.cfg.SuspectAfter)
			if now.Before(deadline) {
				continue
			}
			rec.state = StateSuspect
			rec.suspectAt = deadline
			out = append(out, Transition{Node: i, From: StateAlive, To: StateSuspect, At: deadline})
		}
		if rec.state == StateSuspect {
			deadline := rec.suspectAt.Add(d.cfg.GraceWindow)
			if now.Before(deadline) {
				continue
			}
			rec.state = StateDead
			out = append(out, Transition{Node: i, From: StateSuspect, To: StateDead, At: deadline})
		}
	}
	return out
}

// NodeStatus is one node's externally visible detector state.
type NodeStatus struct {
	Machine       int
	State         NodeState
	LastHeartbeat time.Time
}

// Snapshot returns every node's status in machine order.
func (d *Detector) Snapshot() []NodeStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]NodeStatus, len(d.nodes))
	for i, rec := range d.nodes {
		out[i] = NodeStatus{Machine: i, State: rec.state, LastHeartbeat: rec.lastBeat}
	}
	return out
}
