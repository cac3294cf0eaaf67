// The risk-ordered repair queue: one map of every degradation the
// manager knows of, one entry per target, under the Manager's mutex.
// An entry stays until a re-examination finds its target healthy (or
// gone), so a repair that fails leaves it queued and the next poll
// retries it. Stripes closest to data loss repair first: the primary
// key is the erasure count against the codec's tolerance, refined
// within a tier by the MTTDL-derived loss risk of the degraded state,
// first come first served within ties. A poll drains everything it
// triaged, so the order is fixed once per poll, by one sort.
package repairmgr

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/hdfs"
)

// TaskKind says what a queue entry repairs.
type TaskKind int

const (
	// TaskStripe reconstructs the lost blocks of one erasure-coding
	// stripe (hdfs.FixStripes).
	TaskStripe TaskKind = iota
	// TaskReplicated re-replicates one un-striped block back to its
	// target replica count (hdfs.ReReplicateBlocks).
	TaskReplicated
)

func (k TaskKind) String() string {
	switch k {
	case TaskStripe:
		return "stripe"
	case TaskReplicated:
		return "replicated"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// MarshalText and UnmarshalText carry a kind by its name ("stripe",
// "replicated") in the repair.status reply.
func (k TaskKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

func (k *TaskKind) UnmarshalText(b []byte) error {
	for v := TaskStripe; v <= TaskReplicated; v++ {
		if v.String() == string(b) {
			*k = v
			return nil
		}
	}
	return fmt.Errorf("repairmgr: unknown task kind %q", b)
}

// Task is one known degradation: a pending repair, or a lost block.
type Task struct {
	Kind   TaskKind
	Stripe hdfs.StripeID // TaskStripe
	Block  hdfs.BlockID  // TaskReplicated
	// Erasures is how many of the target's units are currently lost
	// (missing blocks of the stripe; missing replicas of the block).
	Erasures int
	// Risk is the loss rate of the degraded state (1/MTTDL-hours; see
	// Manager.lossRisk). It refines ordering WITHIN an erasure tier —
	// it is squashed below one tier's width, so risk never outranks an
	// extra erasure.
	Risk float64
	// Enqueued is when the target was first queued; the completion log
	// reports the wait from it. Upserts keep it, so a stripe whose
	// erasure count grows in place keeps its queue age.
	Enqueued time.Time

	seq int64 // first-queued order, the tie-break; kept by upserts
	// failedAt is the erasure count the target's last failed repair
	// ran at (0: none failed); kept by upserts. A retry that fails at
	// the same count is not booked again.
	failedAt int
	// lost marks a replicated block with no live replica: nothing to
	// copy from, so the entry is counted but never drained.
	lost bool
}

// target identifies a task's repair target: one queue entry per target.
type target struct {
	kind TaskKind
	id   int64
}

func (t *Task) target() target {
	if t.Kind == TaskStripe {
		return target{TaskStripe, int64(t.Stripe)}
	}
	return target{TaskReplicated, int64(t.Block)}
}

// priority orders repairs: the erasure tier plus a sub-tier risk
// refinement in [0, 1).
func (t *Task) priority() float64 { return float64(t.Erasures) + riskBias(t.Risk) }

// riskBias squashes a loss rate into [0, 1) so risk refines an erasure
// tier without ever jumping one: risk/(risk+pivot), with the pivot at
// one loss per 10k hours (~13 months).
func riskBias(risk float64) float64 {
	const pivot = 1.0 / 1e4
	if risk <= 0 {
		return 0
	}
	return risk / (risk + pivot)
}

// upsert queues the task, or updates the entry for the same target
// keeping its enqueue time, place in line and last failure (an upsert
// reflects new information about the same pending repair, not new
// work). A block that becomes lost counts once in LostBlocks.
func (m *Manager) upsert(t Task) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := t.target()
	old, ok := m.queue[key]
	if ok {
		t.Enqueued, t.seq, t.failedAt = old.Enqueued, old.seq, old.failedAt
	} else {
		m.seq++
		t.seq = m.seq
	}
	if t.lost && !old.lost {
		m.lostBlocks++
	}
	m.queue[key] = t
}

// cancel drops the target's entry, if any: it healed, or is gone.
func (m *Manager) cancel(key target) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.queue, key)
}

// isQueued reports whether the target is known degraded.
func (m *Manager) isQueued(key target) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.queue[key]
	return ok
}

// repairOrder returns the drainable entries in the order a poll runs
// them: highest priority first, first queued first within exact ties.
func (m *Manager) repairOrder() []Task {
	m.mu.Lock()
	tasks := make([]Task, 0, len(m.queue))
	for _, t := range m.queue {
		if !t.lost {
			tasks = append(tasks, t)
		}
	}
	m.mu.Unlock()
	slices.SortFunc(tasks, func(a, b Task) int {
		if c := cmp.Compare(b.priority(), a.priority()); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	return tasks
}

// queueDepths returns the number of drainable entries, and that number
// per erasure tier — the status RPC's triage view.
func (m *Manager) queueDepths() (int, map[int]int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	depth, tiers := 0, make(map[int]int)
	for _, t := range m.queue {
		if !t.lost {
			depth++
			tiers[t.Erasures]++
		}
	}
	return depth, tiers
}

// degraded counts the known degradations by kind — the status RPC's
// health view.
func (m *Manager) degraded() (stripes, blocks int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key := range m.queue {
		if key.kind == TaskStripe {
			stripes++
		} else {
			blocks++
		}
	}
	return stripes, blocks
}
