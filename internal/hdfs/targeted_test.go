package hdfs

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// raidedFile writes size bytes under name and raids it, returning the
// content for later verification.
func raidedFile(t *testing.T, c *Cluster, name string, size int) []byte {
	t.Helper()
	data := randBytes(int64(len(name))+int64(size), size)
	if err := c.WriteFile(name, data); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile(name); err != nil {
		t.Fatal(err)
	}
	return data
}

// erasures counts the stripe's real positions with no live replica.
func erasures(t *testing.T, c *Cluster, id StripeID) int {
	t.Helper()
	d, err := c.Stripe(id)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, p := range d.Positions {
		if p.Block >= 0 && len(p.Locations) == 0 {
			n++
		}
	}
	return n
}

// TestFixStripesTargeted: FixStripes repairs exactly the named stripe
// and leaves other degraded stripes alone — the property the repair
// manager's risk-ordered drain depends on: one call per target.
func TestFixStripesTargeted(t *testing.T) {
	c := testCluster(t, rsCode(t), 11)
	dataA := raidedFile(t, c, "a", 4096)
	dataB := raidedFile(t, c, "b", 4096)

	sidA, _ := stripeOf(t, c, "a", 0)
	sidB, _ := stripeOf(t, c, "b", 0)
	locsA, err := c.BlockLocations("a")
	if err != nil {
		t.Fatal(err)
	}
	locsB, err := c.BlockLocations("b")
	if err != nil {
		t.Fatal(err)
	}
	c.FailMachine(locsA[0][0])
	c.FailMachine(locsB[0][0])
	erasuresA, erasuresB := erasures(t, c, sidA), erasures(t, c, sidB)
	if erasuresA == 0 || erasuresB == 0 {
		t.Fatalf("stripes not degraded by the kills: A=%d B=%d", erasuresA, erasuresB)
	}

	rep, err := c.FixStripes([]StripeID{sidA})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairedStriped != erasuresA || len(rep.Unrecoverable) != 0 {
		t.Fatalf("targeted fix report %+v, want %d repaired", rep, erasuresA)
	}
	if rep.CrossRackBytes == 0 {
		t.Fatal("targeted repair moved no bytes")
	}
	if e := erasures(t, c, sidA); e != 0 {
		t.Fatalf("stripe %d still has %d erasures after targeted fix", sidA, e)
	}
	if e := erasures(t, c, sidB); e != erasuresB {
		t.Fatalf("untargeted stripe %d went from %d to %d erasures", sidB, erasuresB, e)
	}
	got, err := c.ReadFile("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(dataA) {
		t.Fatal("repaired file not byte-identical")
	}
	// Repairing the second stripe restores full health.
	if _, err := c.FixStripes([]StripeID{sidB}); err != nil {
		t.Fatal(err)
	}
	got, err = c.ReadFile("b")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(dataB) {
		t.Fatal("second repaired file not byte-identical")
	}
	if h := c.Health(); !h.Healthy() {
		t.Fatalf("cluster not healthy after targeted fixes: %+v", h)
	}
}

// TestFixStripesIdempotentAndValidated: healthy stripes are scanned
// but not repaired; unknown stripe ids are an error.
func TestFixStripesIdempotentAndValidated(t *testing.T) {
	c := testCluster(t, rsCode(t), 12)
	raidedFile(t, c, "a", 4096)
	sid, _ := stripeOf(t, c, "a", 0)
	rep, err := c.FixStripes([]StripeID{sid, sid}) // duplicate ids collapse
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairedStriped != 0 || rep.CrossRackBytes != 0 {
		t.Fatalf("healthy stripe fix report %+v", rep)
	}
	if rep.ScannedBlocks != 6 { // (4,2) stripe width
		t.Fatalf("scanned %d blocks, want 6", rep.ScannedBlocks)
	}
	if _, err := c.FixStripes([]StripeID{999}); err == nil {
		t.Fatal("unknown stripe id accepted")
	}
}

// TestReReplicateBlocksTargeted: only the named replicated blocks are
// topped up; striped and unknown ids are skipped.
func TestReReplicateBlocksTargeted(t *testing.T) {
	c := testCluster(t, rsCode(t), 13)
	if err := c.WriteFile("r", randBytes(5, 2048)); err != nil {
		t.Fatal(err)
	}
	raidedFile(t, c, "s", 4096)
	locs, err := c.BlockLocations("r")
	if err != nil {
		t.Fatal(err)
	}
	c.FailMachine(locs[0][0])

	_, blocks, err := c.FileBlocks("r")
	if err != nil {
		t.Fatal(err)
	}
	_, striped, err := c.FileBlocks("s")
	if err != nil {
		t.Fatal(err)
	}
	var ids []BlockID
	for _, b := range blocks {
		ids = append(ids, b.ID)
	}
	ids = append(ids, striped[0].ID) // striped: skipped (FixStripes territory)
	ids = append(ids, 9999)          // unknown: skipped, not an error
	rep, err := c.ReReplicateBlocks(ids)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReReplicated == 0 || len(rep.Unrecoverable) != 0 {
		t.Fatalf("re-replication report %+v", rep)
	}
	if h := c.Health(); h.UnderReplicated != 0 {
		t.Fatalf("still under-replicated after targeted pass: %+v", h)
	}
}

// TestMachineInventoryAndHealth: the inventory names exactly the
// stripes and replicated blocks a machine's death affects, and the
// health summary tracks the resulting degradation.
func TestMachineInventoryAndHealth(t *testing.T) {
	c := testCluster(t, rsCode(t), 14)
	raidedFile(t, c, "a", 4096)
	if err := c.WriteFile("r", randBytes(7, 1024)); err != nil {
		t.Fatal(err)
	}
	if h := c.Health(); !h.Healthy() {
		t.Fatalf("fresh cluster unhealthy: %+v", h)
	}

	sid, _ := stripeOf(t, c, "a", 0)
	locsA, err := c.BlockLocations("a")
	if err != nil {
		t.Fatal(err)
	}
	victim := locsA[0][0]
	inv := c.MachineInventory(victim)
	found := false
	for _, s := range inv.Stripes {
		if s == sid {
			found = true
		}
	}
	if !found {
		t.Fatalf("inventory of machine %d misses stripe %d: %+v", victim, sid, inv)
	}

	c.FailMachine(victim)
	h := c.Health()
	if h.MissingStriped == 0 || h.DegradedStripes == 0 {
		t.Fatalf("health after striped-holder kill: %+v", h)
	}
	// Inventory is location-recorded, so it answers AFTER the death too.
	if len(c.MachineInventory(victim).Stripes) == 0 {
		t.Fatal("inventory empty after machine death")
	}

	locsR, err := c.BlockLocations("r")
	if err != nil {
		t.Fatal(err)
	}
	c.FailMachine(locsR[0][0])
	if h := c.Health(); h.UnderReplicated != 1 {
		t.Fatalf("health after replica kill: %+v", h)
	}
}

// getGate parks the first store Get made after arm until release.
type getGate struct {
	armed  atomic.Bool
	parked chan struct{}
	open   chan struct{}
	once   sync.Once
}

func (g *getGate) release() { g.once.Do(func() { close(g.open) }) }

// wrap makes a StoreFactory whose stores park on the gate. The wrapper
// hides the store's GetInto, so every read goes through Get.
func (g *getGate) wrap(inner func(int) (BlockStore, error)) func(int) (BlockStore, error) {
	return func(machine int) (BlockStore, error) {
		st, err := inner(machine)
		if err != nil {
			return nil, err
		}
		return &gatedGetStore{BlockStore: st, gate: g}, nil
	}
}

type gatedGetStore struct {
	BlockStore
	gate *getGate
}

func (s *gatedGetStore) Get(id BlockID) ([]byte, error) {
	if s.gate.armed.CompareAndSwap(true, false) {
		s.gate.parked <- struct{}{}
		<-s.gate.open
	}
	return s.BlockStore.Get(id)
}

// TestFixReportCountsOnlyItsOwnBytes: a degraded read of another
// stripe that runs while a targeted repair waits on its first helper
// read charges the fabric too, but the repair's report carries only
// the repair's own cross-rack bytes.
func TestFixReportCountsOnlyItsOwnBytes(t *testing.T) {
	gate := &getGate{parked: make(chan struct{}, 1), open: make(chan struct{})}
	c := newForTest(t, storeConfig(t, gate.wrap(extentStores(t))))
	t.Cleanup(gate.release)
	raidedFile(t, c, "a", 4096)
	dataB := raidedFile(t, c, "b", 4096)
	sidA, _ := stripeOf(t, c, "a", 0)
	sidB, _ := stripeOf(t, c, "b", 0)
	for _, name := range []string{"a", "b"} {
		locs, err := c.BlockLocations(name)
		if err != nil {
			t.Fatal(err)
		}
		c.FailMachine(locs[0][0])
	}
	if erasures(t, c, sidA) == 0 || erasures(t, c, sidB) == 0 {
		t.Fatal("stripes not degraded by the kills")
	}

	fabric := c.Network()
	x0 := fabric.CrossRackBytes()
	gate.armed.Store(true)
	type result struct {
		rep *FixReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := c.FixStripes([]StripeID{sidA})
		done <- result{rep, err}
	}()
	select {
	case <-gate.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the repair's first helper read never reached a store")
	}
	x1 := fabric.CrossRackBytes()
	got, err := c.ReadFile("b")
	if err != nil || !bytes.Equal(got, dataB) {
		t.Fatalf("degraded read beside the repair: %v", err)
	}
	read := fabric.CrossRackBytes() - x1
	gate.release()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	total := fabric.CrossRackBytes() - x0
	if read == 0 {
		t.Fatal("the degraded read charged no cross-rack bytes")
	}
	if own := total - read; res.rep.CrossRackBytes != own || own == 0 {
		t.Fatalf("report says %d cross-rack bytes; the repair moved %d of the fabric's %d", res.rep.CrossRackBytes, own, total)
	}
}
