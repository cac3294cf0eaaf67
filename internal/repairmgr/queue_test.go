package repairmgr

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/hdfs"
)

func stripeTask(sid int, erasures int, enq time.Time) Task {
	return Task{
		Kind:      TaskStripe,
		Stripe:    hdfs.StripeID(sid),
		Erasures:  erasures,
		Tolerance: 4,
		Bytes:     1 << 20,
		Risk:      float64(erasures) * 1e-6,
		Enqueued:  enq,
	}
}

// TestQueueMultiErasureBeatsSingles is the acceptance property: a
// multi-erasure stripe enqueued AFTER 100 single-erasure stripes pops
// first — it is the one closest to data loss.
func TestQueueMultiErasureBeatsSingles(t *testing.T) {
	q := NewQueue(QueueConfig{AgingTier: 10 * time.Minute})
	for i := 0; i < 100; i++ {
		q.Upsert(stripeTask(i, 1, t0.Add(time.Duration(i)*time.Millisecond)))
	}
	q.Upsert(stripeTask(1000, 2, t0.Add(time.Second)))
	if q.Len() != 101 {
		t.Fatalf("queue depth %d, want 101", q.Len())
	}
	first, ok := q.Pop()
	if !ok || first.Stripe != 1000 {
		t.Fatalf("first pop %+v, want the multi-erasure stripe", first)
	}
	// The singles then drain in FIFO (enqueue) order.
	for i := 0; i < 100; i++ {
		got, ok := q.Pop()
		if !ok || got.Stripe != hdfs.StripeID(i) {
			t.Fatalf("single pop %d: got stripe %d", i, got.Stripe)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue not empty")
	}
}

// TestQueueStarvationAging: one AgingTier of queue time promotes a
// task one erasure tier, so an old single outranks a fresh double.
func TestQueueStarvationAging(t *testing.T) {
	q := NewQueue(QueueConfig{AgingTier: time.Minute})
	q.Upsert(stripeTask(1, 1, t0))                    // waits 3 minutes
	q.Upsert(stripeTask(2, 2, t0.Add(3*time.Minute))) // fresh double
	first, _ := q.Pop()
	if first.Stripe != 1 {
		t.Fatalf("aged single did not outrank fresh double: popped stripe %d", first.Stripe)
	}

	// Without aging the double always wins.
	q = NewQueue(QueueConfig{})
	q.Upsert(stripeTask(1, 1, t0))
	q.Upsert(stripeTask(2, 2, t0.Add(3*time.Minute)))
	first, _ = q.Pop()
	if first.Stripe != 2 {
		t.Fatalf("with aging disabled, popped stripe %d, want the double", first.Stripe)
	}
}

// TestQueueRiskRefinesWithinTier: same erasure count, but the target
// with less remaining redundancy (higher MTTDL-derived risk) pops
// first — and risk never jumps a whole tier.
func TestQueueRiskRefinesWithinTier(t *testing.T) {
	q := NewQueue(QueueConfig{})
	lowRisk := stripeTask(1, 1, t0)
	lowRisk.Risk = 1e-9
	highRisk := Task{
		Kind: TaskReplicated, Block: 7, Erasures: 1, Tolerance: 2,
		Bytes: 1 << 20, Risk: 1e-2, Enqueued: t0,
	}
	double := stripeTask(3, 2, t0)
	double.Risk = 1e-12 // even a negligible-risk double outranks tier 1
	q.Upsert(lowRisk)
	q.Upsert(highRisk)
	q.Upsert(double)

	got, _ := q.Pop()
	if got.Stripe != 3 {
		t.Fatalf("first pop %+v, want the double-erasure stripe", got)
	}
	got, _ = q.Pop()
	if got.Kind != TaskReplicated {
		t.Fatalf("second pop %+v, want the high-risk replicated block", got)
	}
}

// TestQueueUpsertAndRemove: an upsert keeps the original enqueue age
// (new information, not new work); Remove cancels by key.
func TestQueueUpsertAndRemove(t *testing.T) {
	q := NewQueue(QueueConfig{AgingTier: time.Minute})
	q.Upsert(stripeTask(1, 1, t0))
	grown := stripeTask(1, 2, t0.Add(5*time.Minute)) // second machine died
	q.Upsert(grown)
	if q.Len() != 1 {
		t.Fatalf("upsert duplicated the entry: depth %d", q.Len())
	}
	popped, _ := q.Pop()
	if popped.Erasures != 2 || !popped.Enqueued.Equal(t0) {
		t.Fatalf("upsert lost state: %+v", popped)
	}
	q.Upsert(popped)
	if d := q.DepthsByErasures(); d[2] != 1 || d[1] != 0 {
		t.Fatalf("depths %v", d)
	}
	key := (&Task{Kind: TaskStripe, Stripe: 1}).Key()
	if !q.Remove(key) {
		t.Fatal("remove of queued entry failed")
	}
	if q.Remove(key) {
		t.Fatal("second remove succeeded")
	}
	if q.Len() != 0 {
		t.Fatalf("depth %d after remove", q.Len())
	}
}

// TestQueueKeysDistinct: stripe and block keys never collide.
func TestQueueKeysDistinct(t *testing.T) {
	s := &Task{Kind: TaskStripe, Stripe: 5}
	b := &Task{Kind: TaskReplicated, Block: 5}
	if s.Key() == b.Key() {
		t.Fatalf("key collision: %q", s.Key())
	}
	if fmt.Sprint(TaskStripe, TaskReplicated) != "stripe replicated" {
		t.Fatalf("kind strings: %v %v", TaskStripe, TaskReplicated)
	}
}
