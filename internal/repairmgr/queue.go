// The risk-tiered repair queue. Stripes closest to data loss repair
// first: the primary key is the erasure count against the codec's
// tolerance, refined within a tier by the MTTDL-derived loss risk of
// the degraded state, with starvation aging that promotes a waiting
// task one full tier per AgingTier of queue time — so a sustained
// burst of multi-erasure arrivals cannot park single-erasure stripes
// forever, the scheduling lesson of the multi-level recovery
// literature.
package repairmgr

import (
	"container/heap"
	"fmt"
	"sync"
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

// Task is one pending repair.
type Task struct {
	Kind   TaskKind
	Stripe hdfs.StripeID // TaskStripe
	Block  hdfs.BlockID  // TaskReplicated
	// Erasures is how many of the target's units are currently lost
	// (missing blocks of the stripe; missing replicas of the block);
	// Tolerance how many it can lose before data loss.
	Erasures  int
	Tolerance int
	// Bytes estimates the repair's cross-rack download; it sizes Risk
	// (a bigger repair takes longer).
	Bytes int64
	// Risk is the loss rate of the degraded state (1/MTTDL-hours; see
	// Manager.lossRisk). It refines ordering WITHIN an erasure tier —
	// it is squashed below one tier's width, so risk never outranks an
	// extra erasure.
	Risk float64
	// Enqueued drives starvation aging and FIFO tie-breaking. Upserts
	// keep the original enqueue time, so a stripe whose erasure count
	// grows in place keeps its queue age.
	Enqueued time.Time

	seq   int64
	index int // heap position, maintained by the queue
	// prio is the static ordering key, computed at upsert. It is
	// time-invariant (see Queue.priority), so computing it once is
	// sound even while the task ages.
	prio float64
}

// Key identifies the task's repair target: one queue entry per target.
func (t *Task) Key() string {
	if t.Kind == TaskStripe {
		return fmt.Sprintf("s%d", t.Stripe)
	}
	return fmt.Sprintf("b%d", t.Block)
}

// QueueConfig parameterises ordering.
type QueueConfig struct {
	// AgingTier is the queue time that promotes a task one erasure
	// tier. Zero disables aging (pure risk-tier ordering).
	AgingTier time.Duration
}

// Queue is the priority queue. Safe for concurrent use.
type Queue struct {
	cfg QueueConfig

	mu    sync.Mutex
	items map[string]*Task
	heap  taskHeap
	seq   int64
}

// NewQueue builds an empty queue.
func NewQueue(cfg QueueConfig) *Queue {
	return &Queue{cfg: cfg, items: make(map[string]*Task)}
}

// priority returns the task's static ordering key: erasure tier plus a
// sub-tier risk refinement in [0, 1), plus aging credit measured from
// the enqueue time. Because every queued task ages at the same rate,
// the relative order of these keys never changes as time passes —
// which is what lets a heap hold aging tasks at all.
func (q *Queue) priority(t *Task) float64 {
	p := float64(t.Erasures) + riskBias(t.Risk)
	if q.cfg.AgingTier > 0 {
		// Earlier enqueue ⇒ more accumulated age ⇒ higher key. Measured
		// against the fixed Unix epoch so the key is time-invariant.
		p -= float64(t.Enqueued.UnixNano()) / float64(q.cfg.AgingTier.Nanoseconds())
	}
	return p
}

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

// Upsert inserts the task or updates the existing entry for the same
// target, keeping the original enqueue time (an upsert reflects new
// information about the same pending repair, not new work).
func (q *Queue) Upsert(t Task) {
	q.mu.Lock()
	defer q.mu.Unlock()
	key := t.Key()
	if old, ok := q.items[key]; ok {
		t.Enqueued = old.Enqueued
		t.seq = old.seq
		t.index = old.index
		t.prio = q.priority(&t)
		*old = t
		heap.Fix(&q.heap, old.index)
		return
	}
	q.seq++
	t.seq = q.seq
	t.prio = q.priority(&t)
	nt := &t
	q.items[key] = nt
	heap.Push(&q.heap, nt)
}

// Remove cancels the pending repair for the target key, reporting
// whether one was queued — the restart-within-grace path.
func (q *Queue) Remove(key string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.items[key]
	if !ok {
		return false
	}
	delete(q.items, key)
	heap.Remove(&q.heap, t.index)
	return true
}

// Contains reports whether a repair is queued for the target key.
func (q *Queue) Contains(key string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, ok := q.items[key]
	return ok
}

// Pop removes and returns the highest-priority task.
func (q *Queue) Pop() (Task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.heap.Len() == 0 {
		return Task{}, false
	}
	t := heap.Pop(&q.heap).(*Task)
	delete(q.items, t.Key())
	return *t, true
}

// Len returns the queue depth.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// DepthsByErasures returns the queue depth per erasure tier — the
// status RPC's triage view.
func (q *Queue) DepthsByErasures() map[int]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[int]int)
	for _, t := range q.items {
		out[t.Erasures]++
	}
	return out
}

// taskHeap orders tasks by descending priority, FIFO within ties.
// Methods are called only with the queue's mutex held.
type taskHeap []*Task

func (h taskHeap) Len() int { return len(h) }

func (h taskHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq // FIFO within exact ties
}

func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *taskHeap) Push(x any) {
	t := x.(*Task)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
