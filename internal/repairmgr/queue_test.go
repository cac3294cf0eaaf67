package repairmgr

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/hdfs"
)

func stripeTask(sid int, erasures int, enq time.Time) Task {
	return Task{
		Kind:     TaskStripe,
		Stripe:   hdfs.StripeID(sid),
		Erasures: erasures,
		Risk:     float64(erasures) * 1e-6,
		Enqueued: enq,
	}
}

// queueOnly is a manager with nothing but its repair queue: enough for
// upsert, cancel and the drain order, which touch no cluster.
func queueOnly() *Manager { return &Manager{queue: make(map[target]Task)} }

// pop takes the next repair off the queue, as a poll's drain does.
func pop(m *Manager) (Task, bool) {
	order := m.repairOrder()
	if len(order) == 0 {
		return Task{}, false
	}
	m.cancel(order[0].target())
	return order[0], true
}

// TestQueueMultiErasureBeatsSingles is the acceptance property: a
// multi-erasure stripe enqueued AFTER 100 single-erasure stripes pops
// first — it is the one closest to data loss.
func TestQueueMultiErasureBeatsSingles(t *testing.T) {
	m := queueOnly()
	for i := 0; i < 100; i++ {
		m.upsert(stripeTask(i, 1, t0.Add(time.Duration(i)*time.Millisecond)))
	}
	m.upsert(stripeTask(1000, 2, t0.Add(time.Second)))
	if m.QueueDepth() != 101 {
		t.Fatalf("queue depth %d, want 101", m.QueueDepth())
	}
	first, ok := pop(m)
	if !ok || first.Stripe != 1000 {
		t.Fatalf("first pop %+v, want the multi-erasure stripe", first)
	}
	// The singles then drain in FIFO (enqueue) order.
	for i := 0; i < 100; i++ {
		got, ok := pop(m)
		if !ok || got.Stripe != hdfs.StripeID(i) {
			t.Fatalf("single pop %d: got stripe %d", i, got.Stripe)
		}
	}
	if _, ok := pop(m); ok {
		t.Fatal("queue not empty")
	}
}

// TestQueueRiskRefinesWithinTier: same erasure count, but the target
// with less remaining redundancy (higher MTTDL-derived risk) pops
// first — and risk never jumps a whole tier.
func TestQueueRiskRefinesWithinTier(t *testing.T) {
	m := queueOnly()
	lowRisk := stripeTask(1, 1, t0)
	lowRisk.Risk = 1e-9
	highRisk := Task{Kind: TaskReplicated, Block: 7, Erasures: 1, Risk: 1e-2, Enqueued: t0}
	double := stripeTask(3, 2, t0)
	double.Risk = 1e-12 // even a negligible-risk double outranks tier 1
	m.upsert(lowRisk)
	m.upsert(highRisk)
	m.upsert(double)

	got, _ := pop(m)
	if got.Stripe != 3 {
		t.Fatalf("first pop %+v, want the double-erasure stripe", got)
	}
	got, _ = pop(m)
	if got.Kind != TaskReplicated {
		t.Fatalf("second pop %+v, want the high-risk replicated block", got)
	}
}

// TestQueueUpsertAndRemove: an upsert keeps the original enqueue age
// (new information, not new work); cancel drops the target's entry.
func TestQueueUpsertAndRemove(t *testing.T) {
	m := queueOnly()
	m.upsert(stripeTask(1, 1, t0))
	grown := stripeTask(1, 2, t0.Add(5*time.Minute)) // second machine died
	m.upsert(grown)
	if m.QueueDepth() != 1 {
		t.Fatalf("upsert duplicated the entry: depth %d", m.QueueDepth())
	}
	popped, _ := pop(m)
	if popped.Erasures != 2 || !popped.Enqueued.Equal(t0) {
		t.Fatalf("upsert lost state: %+v", popped)
	}
	m.upsert(popped)
	if _, d := m.queueDepths(); d[2] != 1 || d[1] != 0 {
		t.Fatalf("depths %v", d)
	}
	key := popped.target()
	if !m.isQueued(key) {
		t.Fatal("the re-queued entry is not queued")
	}
	m.cancel(key)
	if m.isQueued(key) {
		t.Fatal("cancel left the entry queued")
	}
	if m.QueueDepth() != 0 {
		t.Fatalf("depth %d after cancel", m.QueueDepth())
	}
}

// TestQueueKeysDistinct: stripe and block targets never collide.
func TestQueueKeysDistinct(t *testing.T) {
	s := &Task{Kind: TaskStripe, Stripe: 5}
	b := &Task{Kind: TaskReplicated, Block: 5}
	if s.target() == b.target() {
		t.Fatalf("target collision: %+v", s.target())
	}
	if fmt.Sprint(TaskStripe, TaskReplicated) != "stripe replicated" {
		t.Fatalf("kind strings: %v %v", TaskStripe, TaskReplicated)
	}
}
