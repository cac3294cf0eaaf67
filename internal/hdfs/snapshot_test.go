package hdfs

import (
	"bytes"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// hasCountingStore counts every liveness probe (Has) made of its store.
type hasCountingStore struct {
	BlockStore
	probes *atomic.Int64
}

func (s hasCountingStore) Has(id BlockID) bool {
	s.probes.Add(1)
	return s.BlockStore.Has(id)
}

// degradedStripe raids a file of one core(4,2) stripe on c, fails the
// machine of its first block, and returns the file's content, the
// stripe's snapshot taken before the failure, and the failed machine.
func degradedStripe(t *testing.T, c *Cluster) ([]byte, StripeDetail, int) {
	t.Helper()
	data := raidedFile(t, c, "f", 4096)
	sid, pos := stripeOf(t, c, "f", 0)
	d, err := c.Stripe(sid)
	if err != nil {
		t.Fatal(err)
	}
	if pos != 0 || len(d.Positions[0].Locations) != 1 {
		t.Fatalf("block 0 sits at position %d with holders %v", pos, d.Positions[0].Locations)
	}
	dead := d.Positions[0].Locations[0]
	c.FailMachine(dead)
	return data, d, dead
}

// TestFixStripesProbesLivenessOnce: a stripe repair asks each holder
// whether it holds its block once — in the stripe's snapshot, from
// which it finds the lost blocks too — and never again while it plans
// and fetches.
func TestFixStripesProbesLivenessOnce(t *testing.T) {
	var probes atomic.Int64
	stores := extentStores(t)
	c := newForTest(t, storeConfig(t, func(m int) (BlockStore, error) {
		st, err := stores(m)
		if err != nil {
			return nil, err
		}
		return hasCountingStore{BlockStore: st, probes: &probes}, nil
	}))
	_, d, _ := degradedStripe(t, c)
	probes.Store(0)
	rep, err := c.FixStripes([]StripeID{d.ID})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairedStriped != 1 || len(rep.Unrecoverable) != 0 {
		t.Fatalf("repair report %+v", rep)
	}
	live := int64(c.Code().TotalShards() - 1)
	if n := probes.Load(); n > live {
		t.Fatalf("the repair probed liveness %d times for %d live positions, want at most %d", n, live, live)
	}
}

// TestFixerDecodesWithoutTheMetadataLock: a planned stripe fix decodes
// from its snapshot alone, so it runs to the right bytes while the
// metadata lock is held exclusively by someone else.
func TestFixerDecodesWithoutTheMetadataLock(t *testing.T) {
	c := testCluster(t, pbCode(t), 3)
	data, d, _ := degradedStripe(t, c)

	c.lockMeta()
	defer c.mu.Unlock()
	sm := c.stripes[d.ID]
	bm := c.blocks[sm.blocks[0]]
	fix := &stripeFix{stripe: c.stripeDetailLocked(sm), lost: []*blockMeta{bm}}
	if err := c.planStripeFixLocked(fix); err != nil {
		t.Fatal(err)
	}
	type result struct {
		shards map[int][]byte
		err    error
	}
	done := make(chan result, 1)
	go func() {
		shards, err := c.decodeAroundRot(fix.stripe, fix.positions, fix.worker(), nil, nil)
		done <- result{shards, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if got := r.shards[0][:bm.size]; !bytes.Equal(got, data[:bm.size]) {
			t.Fatal("the decode rebuilt the wrong bytes")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the decode waited on the metadata lock")
	}
}

// TestFixStripesHolderDiesAfterTheSnapshot: a helper whose machine dies
// after the stripe's snapshot fails its fetch, and the pass reports the
// stripe's lost block unrecoverable; once the helpers are back, the
// next pass repairs it.
func TestFixStripesHolderDiesAfterTheSnapshot(t *testing.T) {
	gate := &getGate{parked: make(chan struct{}, 1), open: make(chan struct{})}
	c := newForTest(t, storeConfig(t, gate.wrap(extentStores(t))))
	t.Cleanup(gate.release)
	data, d, _ := degradedStripe(t, c)

	gate.armed.Store(true)
	type result struct {
		rep *FixReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := c.FixStripes([]StripeID{d.ID})
		done <- result{rep, err}
	}()
	waitFor(t, gate.parked, "the repair's first helper read")
	// The parked read holds its store handle and completes; every
	// other helper is dead by the time it is fetched.
	var helpers []int
	for _, p := range d.Positions[1:] {
		helpers = append(helpers, p.Locations...)
	}
	for _, m := range helpers {
		c.FailMachine(m)
	}
	gate.release()
	var res result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the repair did not finish")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	lost := []BlockID{d.Positions[0].Block}
	if res.rep.RepairedStriped != 0 || !slices.Equal(res.rep.Unrecoverable, lost) {
		t.Fatalf("pass with helpers dead after the snapshot: %+v, want block %v unrecoverable", res.rep, lost)
	}

	for _, m := range helpers {
		if err := c.RecoverMachine(m); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.FixStripes([]StripeID{d.ID})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairedStriped != 1 || len(rep.Unrecoverable) != 0 {
		t.Fatalf("second pass: %+v", rep)
	}
	if got, err := c.ReadFile("f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after the second pass: %v", err)
	}
}
