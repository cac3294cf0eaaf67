package repairmgr

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/extent"
	"repro/internal/hdfs"
	"repro/internal/rs"
	"repro/internal/telemetry"
	"repro/internal/testutil/leakcheck"
)

// fakeClock is a manually advanced clock shared by the manager and the
// test's heartbeat injection — no wall-clock sleeps anywhere.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: t0} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testHarness is an in-process cluster with a manager driven by
// explicit ticks: each tick advances the clock, heartbeats every
// machine the cluster considers alive (standing in for the serve
// layer's dn.heartbeat loops), and polls the control loop once.
type testHarness struct {
	t       *testing.T
	cluster *hdfs.Cluster
	mgr     *Manager
	clk     *fakeClock
}

func newHarness(t *testing.T, cfg Config) *testHarness {
	t.Helper()
	return newHarnessOn(t, cfg, nil)
}

// newHarnessOn is newHarness with the datanodes' stores built by
// stores (nil: the cluster's own extent stores).
func newHarnessOn(t *testing.T, cfg Config, stores func(int) (hdfs.BlockStore, error)) *testHarness {
	t.Helper()
	// Catches a Run loop (or anything else) left behind at test end —
	// most tests here are tick-driven and goroutine-free, but the
	// Start/Stop smoke test spawns the live loop.
	leakcheck.Cleanup(t)
	code, err := rs.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := hdfs.New(hdfs.Config{
		Topology:     cluster.Topology{Racks: 10, MachinesPerRack: 2},
		Code:         code,
		BlockSize:    1024,
		Replication:  3,
		Seed:         42,
		StoreFactory: stores,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	clk := newFakeClock()
	cfg.Clock = clk.Now
	mgr, err := New(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testHarness{t: t, cluster: cl, mgr: mgr, clk: clk}
}

// tick advances the clock, heartbeats the live machines, and polls.
func (h *testHarness) tick(d time.Duration) {
	h.t.Helper()
	h.clk.Advance(d)
	for m := 0; m < h.cluster.Machines(); m++ {
		if h.cluster.MachineAlive(m) {
			if err := h.mgr.Heartbeat(m); err != nil {
				h.t.Fatal(err)
			}
		}
	}
	if err := h.mgr.Poll(); err != nil {
		h.t.Fatal(err)
	}
}

// raided writes and raids a file, returning its content.
func (h *testHarness) raided(name string, size int) []byte {
	h.t.Helper()
	rng := rand.New(rand.NewSource(int64(len(name)) + int64(size)))
	data := make([]byte, size)
	rng.Read(data)
	if err := h.cluster.WriteFile(name, data); err != nil {
		h.t.Fatal(err)
	}
	if err := h.cluster.RaidFile(name); err != nil {
		h.t.Fatal(err)
	}
	return data
}

// victimOf returns the machine holding the file's first block.
func (h *testHarness) victimOf(name string) int {
	h.t.Helper()
	locs, err := h.cluster.BlockLocations(name)
	if err != nil {
		h.t.Fatal(err)
	}
	if len(locs) == 0 || len(locs[0]) == 0 {
		h.t.Fatalf("file %s has no located blocks", name)
	}
	return locs[0][0]
}

// TestManagerAutoRepairsDeadNode: a machine death is detected by
// heartbeat silence and repaired to full health with zero manual
// fixer calls.
func TestManagerAutoRepairsDeadNode(t *testing.T) {
	h := newHarness(t, Config{
		SuspectAfter: 3 * time.Second,
		GraceWindow:  5 * time.Second,
	})
	data := h.raided("f", 4096)
	victim := h.victimOf("f")
	h.cluster.FailMachine(victim)
	if h.cluster.Health().Healthy() {
		t.Fatal("kill did not degrade the cluster")
	}

	// Silence walks the victim through suspect (3s) and dead (8s); the
	// next poll triages and repairs. 10 one-second ticks cover it.
	for i := 0; i < 10; i++ {
		h.tick(time.Second)
	}
	st := h.mgr.Status()
	if st.RepairsDone == 0 {
		t.Fatalf("no repairs ran: %+v", st)
	}
	if !h.cluster.Health().Healthy() {
		t.Fatalf("cluster not healthy: %+v, status %+v", h.cluster.Health(), st)
	}
	if st.QueueDepth != 0 || st.DegradedStripes != 0 {
		t.Fatalf("residual queue state: %+v", st)
	}
	if st.Nodes[victim].State != StateDead {
		t.Fatalf("victim state %v, want dead", st.Nodes[victim].State)
	}
	got, err := h.cluster.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("repaired content differs")
	}
}

// TestManagerGraceWindowCancelsRepair: kill-then-restore inside the
// grace window produces ZERO repair traffic — the transient-failure
// property the paper's operators rely on.
func TestManagerGraceWindowCancelsRepair(t *testing.T) {
	h := newHarness(t, Config{
		SuspectAfter: 3 * time.Second,
		GraceWindow:  10 * time.Second,
	})
	h.raided("f", 4096)
	victim := h.victimOf("f")
	before := h.cluster.Network().CrossRackBytes()

	h.cluster.FailMachine(victim)
	// Walk into the suspect state (4 ticks > SuspectAfter)...
	for i := 0; i < 4; i++ {
		h.tick(time.Second)
	}
	if st := h.mgr.Status().Nodes[victim].State; st != StateSuspect {
		t.Fatalf("victim state %v after 4s silence, want suspect", st)
	}
	// ...restore within the grace window, then run far past the point
	// where death would have been declared.
	if err := h.cluster.RecoverMachine(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		h.tick(time.Second)
	}

	st := h.mgr.Status()
	if got := h.cluster.Network().CrossRackBytes() - before; got != 0 {
		t.Fatalf("transient failure moved %d repair bytes, want 0", got)
	}
	if st.RepairsDone != 0 || st.QueueDepth != 0 {
		t.Fatalf("transient failure triggered repairs: %+v", st)
	}
	if st.AvoidedRepairs == 0 || st.AvoidedRepairBytes == 0 {
		t.Fatalf("grace save not accounted: %+v", st)
	}
	if st.Nodes[victim].State != StateAlive {
		t.Fatalf("victim state %v, want alive", st.Nodes[victim].State)
	}
}

// TestManagerPriorityOrdering: with the manager paused, kill two
// machines so some stripes lose two blocks; on resume, every
// double-erasure repair completes before any single-erasure one.
func TestManagerPriorityOrdering(t *testing.T) {
	h := newHarness(t, Config{
		SuspectAfter: 2 * time.Second,
		GraceWindow:  2 * time.Second,
	})
	for i := 0; i < 8; i++ {
		h.raided(string(rune('a'+i)), 4096)
	}
	// Find two machines sharing at least one stripe.
	m1, m2 := -1, -1
	shared := 0
	for a := 0; a < h.cluster.Machines() && m1 < 0; a++ {
		for b := a + 1; b < h.cluster.Machines(); b++ {
			sa := h.cluster.MachineInventory(a).Stripes
			sb := h.cluster.MachineInventory(b).Stripes
			inB := make(map[hdfs.StripeID]bool, len(sb))
			for _, s := range sb {
				inB[s] = true
			}
			n := 0
			for _, s := range sa {
				if inB[s] {
					n++
				}
			}
			if n > 0 && len(sa)+len(sb)-2*n > 0 {
				m1, m2, shared = a, b, n
				break
			}
		}
	}
	if m1 < 0 {
		t.Skip("no machine pair shares a stripe under this seed")
	}

	h.mgr.Pause()
	h.cluster.FailMachine(m1)
	h.cluster.FailMachine(m2)
	for i := 0; i < 6; i++ {
		h.tick(time.Second) // both declared dead; queue fills, nothing drains
	}
	st := h.mgr.Status()
	if st.RepairsDone != 0 {
		t.Fatalf("paused manager repaired: %+v", st)
	}
	if st.QueueByErasures[2] != shared {
		t.Fatalf("queued doubles %d, want %d (depths %v)", st.QueueByErasures[2], shared, st.QueueByErasures)
	}
	h.mgr.Resume()
	h.tick(time.Second)

	st = h.mgr.Status()
	if !h.cluster.Health().Healthy() {
		t.Fatalf("not healthy after resume: %+v", h.cluster.Health())
	}
	lastDouble, firstSingle := -1, -1
	for _, c := range st.Completed {
		switch {
		case c.Erasures >= 2 && c.Seq > lastDouble:
			lastDouble = c.Seq
		case c.Erasures == 1 && (firstSingle < 0 || c.Seq < firstSingle):
			firstSingle = c.Seq
		}
	}
	if lastDouble < 0 || firstSingle < 0 {
		t.Fatalf("completion log lacks both tiers: %+v", st.Completed)
	}
	if lastDouble > firstSingle {
		t.Fatalf("a single-erasure repair (seq %d) ran before the last double (seq %d)", firstSingle, lastDouble)
	}
}

// TestManagerRepairsAnEvictedReplica: a replica the namenode evicted
// on a reader's report waits, like a heartbeat's transitions, for the
// next poll, which triages its stripe and repairs it — inside the grace
// window, since the replica's machine is alive and nothing brings the
// replica back.
func TestManagerRepairsAnEvictedReplica(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	data := h.raided("f", 4096)
	_, blocks, err := h.cluster.FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	b := blocks[0]
	if err := h.cluster.InjectBitRot(b.Locations[0], b.ID, 3); err != nil {
		t.Fatal(err)
	}
	if v, err := h.cluster.VerifyReplica(b.ID, b.Locations[0]); err != nil || v != hdfs.ReplicaEvicted {
		t.Fatalf("verify of the rotted replica: %v, %v", v, err)
	}
	h.mgr.ReplicaEvicted(b.ID)
	if st := h.mgr.Status(); st.DegradedStripes != 0 || st.QueueDepth != 0 {
		t.Fatalf("the eviction was triaged before a poll: %+v", st)
	}
	h.tick(time.Second)
	st := h.mgr.Status()
	if st.RepairsDone != 1 || st.QueueDepth != 0 || st.DegradedStripes != 0 {
		t.Fatalf("one poll after the eviction: %+v", st)
	}
	if !h.cluster.Health().Healthy() {
		t.Fatalf("cluster not healthy: %+v", h.cluster.Health())
	}
	got, err := h.cluster.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content differs after the eviction's repair")
	}
}

// TestManagerReplicatedBlockRepair: an un-striped file's lost replica
// re-replicates through the same queue.
func TestManagerReplicatedBlockRepair(t *testing.T) {
	h := newHarness(t, Config{SuspectAfter: 2 * time.Second, GraceWindow: 2 * time.Second})
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 2048)
	rng.Read(data)
	if err := h.cluster.WriteFile("r", data); err != nil {
		t.Fatal(err)
	}
	victim := h.victimOf("r")
	h.cluster.FailMachine(victim)
	for i := 0; i < 8; i++ {
		h.tick(time.Second)
	}
	st := h.mgr.Status()
	if st.RepairsDone == 0 {
		t.Fatalf("no re-replication ran: %+v", st)
	}
	if h := h.cluster.Health(); h.UnderReplicated != 0 {
		t.Fatalf("still under-replicated: %+v", h)
	}
	foundRepl := false
	for _, c := range st.Completed {
		if c.Kind == TaskReplicated {
			foundRepl = true
		}
	}
	if !foundRepl {
		t.Fatalf("completion log lacks a replicated-block repair: %+v", st.Completed)
	}
}

// TestManagerStartStop: the live loop starts and stops cleanly, and
// Heartbeat plus DIRECT Poll calls work concurrently with the ticker —
// overlapping polls serialise instead of double-draining the queue
// (smoke; ordering correctness is covered by the deterministic tests
// above).
func TestManagerStartStop(t *testing.T) {
	h := newHarness(t, Config{SuspectAfter: time.Hour, PollInterval: time.Millisecond})
	h.mgr.Start()
	h.mgr.Start() // idempotent
	for i := 0; i < 50; i++ {
		if err := h.mgr.Heartbeat(i % h.cluster.Machines()); err != nil {
			t.Fatal(err)
		}
		if err := h.mgr.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	h.mgr.Stop()
	h.mgr.Stop() // idempotent
	if got := h.mgr.Status(); got.RepairsDone != 0 {
		t.Fatalf("idle loop repaired something: %+v", got)
	}
}

// TestDefaultGraceWindowIsFifteenMinutes: under DefaultConfig a silent
// machine is still waited for 15 minutes less a second after it went
// suspect, and is repaired once that window has passed.
func TestDefaultGraceWindowIsFifteenMinutes(t *testing.T) {
	def := DefaultConfig()
	h := newHarness(t, def)
	h.raided("f", 4096)
	victim := h.victimOf("f")
	h.cluster.FailMachine(victim)

	h.tick(def.SuspectAfter)
	h.tick(15*time.Minute - time.Second)
	st := h.mgr.Status()
	if st.Nodes[victim].State != StateSuspect || st.RepairsDone != 0 || h.cluster.Health().Healthy() {
		t.Fatalf("15m-1s after suspect: state %v, %d repairs, healthy %v; want suspect, none, degraded",
			st.Nodes[victim].State, st.RepairsDone, h.cluster.Health().Healthy())
	}

	h.tick(2 * time.Second)
	st = h.mgr.Status()
	if st.Nodes[victim].State != StateDead || st.RepairsDone == 0 || !h.cluster.Health().Healthy() {
		t.Fatalf("past SuspectAfter+GraceWindow: state %v, %d repairs, healthy %v; want dead, repaired",
			st.Nodes[victim].State, st.RepairsDone, h.cluster.Health().Healthy())
	}
}

// TestRepairNowReconcilesTheQueue: a paused manager holds a dead
// machine's repairs; RepairNow runs the full pass anyway, the entries
// it made healthy leave the queue, and the pass's
// bytes join the status without counting as queue repairs.
func TestRepairNowReconcilesTheQueue(t *testing.T) {
	h := newHarness(t, Config{SuspectAfter: 2 * time.Second, GraceWindow: 2 * time.Second})
	for i := 0; i < 4; i++ {
		h.raided(string(rune('a'+i)), 4096)
	}
	h.mgr.Pause()
	h.cluster.FailMachine(h.victimOf("a"))
	for i := 0; i < 5; i++ {
		h.tick(time.Second)
	}
	if st := h.mgr.Status(); st.QueueDepth == 0 || st.DegradedStripes == 0 {
		t.Fatalf("dead machine's repairs not queued: %+v", st)
	}

	rep, err := h.mgr.RepairNow()
	if err != nil {
		t.Fatal(err)
	}
	st := h.mgr.Status()
	if !h.cluster.Health().Healthy() || rep.RepairedStriped == 0 {
		t.Fatalf("RepairNow did not heal the cluster: %+v", rep)
	}
	if st.QueueDepth != 0 || st.DegradedStripes != 0 || st.DegradedBlocks != 0 {
		t.Fatalf("repaired entries left in the control plane: %+v", st)
	}
	if st.RepairedBytes != rep.CrossRackBytes || rep.CrossRackBytes == 0 || st.RepairsDone != 0 {
		t.Fatalf("status %+v does not account the pass's %d bytes alone", st, rep.CrossRackBytes)
	}
}

// TestRepairNowForfeitsTheGraceSave: a machine that returns after a
// RepairNow pass rebuilt its blocks is not credited a grace-window
// saving — the repair it would have avoided already ran.
func TestRepairNowForfeitsTheGraceSave(t *testing.T) {
	h := newHarness(t, Config{SuspectAfter: 2 * time.Second, GraceWindow: time.Minute})
	h.raided("f", 4096)
	victim := h.victimOf("f")
	h.cluster.FailMachine(victim)
	for i := 0; i < 3; i++ {
		h.tick(time.Second)
	}
	if st := h.mgr.Status(); st.Nodes[victim].State != StateSuspect {
		t.Fatalf("victim %v, want suspect", st.Nodes[victim].State)
	}
	if _, err := h.mgr.RepairNow(); err != nil {
		t.Fatal(err)
	}
	if err := h.cluster.RecoverMachine(victim); err != nil {
		t.Fatal(err)
	}
	h.tick(time.Second)
	if st := h.mgr.Status(); st.Nodes[victim].State != StateAlive || st.AvoidedRepairs != 0 || st.AvoidedRepairBytes != 0 {
		t.Fatalf("return after RepairNow: %+v, want alive and no grace save", st)
	}
}

// TestRaidedBlockLeavesTheQueue: a replicated block the queue holds
// degraded and that is then raided belongs to a stripe, whose health
// the queue tracks through the stripe. The block's own entry goes, so
// the status shows nothing degraded once the cluster is healthy.
func TestRaidedBlockLeavesTheQueue(t *testing.T) {
	h := newHarness(t, Config{SuspectAfter: 2 * time.Second, GraceWindow: 2 * time.Second})
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 2048)
	rng.Read(data)
	if err := h.cluster.WriteFile("r", data); err != nil {
		t.Fatal(err)
	}
	h.mgr.Pause()
	h.cluster.FailMachine(h.victimOf("r"))
	for i := 0; i < 5; i++ {
		h.tick(time.Second)
	}
	if st := h.mgr.Status(); st.QueueDepth != 2 || st.DegradedBlocks != 2 {
		t.Fatalf("the dead holder's blocks are not queued: %+v", st)
	}
	if err := h.cluster.RaidFile("r"); err != nil {
		t.Fatal(err)
	}
	h.mgr.Resume()
	h.tick(time.Second)
	if _, err := h.mgr.RepairNow(); err != nil {
		t.Fatal(err)
	}
	h.tick(time.Second)
	if !h.cluster.Health().Healthy() {
		t.Fatalf("cluster not healthy: %+v", h.cluster.Health())
	}
	st := h.mgr.Status()
	if st.QueueDepth != 0 || st.DegradedBlocks != 0 || st.DegradedStripes != 0 {
		t.Fatalf("a healthy cluster's status shows %d queued, %d degraded blocks, %d degraded stripes",
			st.QueueDepth, st.DegradedBlocks, st.DegradedStripes)
	}
	// The two queued replicated entries were raided before they ran, so
	// re-replication skipped them: they are not repairs. RepairNow's
	// fixer pass is not a queue entry either, so nothing is booked.
	for _, c := range st.Completed {
		if c.Kind == TaskReplicated && c.Bytes == 0 {
			t.Errorf("a skipped replicated block is booked as a repair: %+v", c)
		}
	}
	if st.RepairsDone != 0 || len(st.Completed) != 0 {
		t.Errorf("RepairsDone %d with %d booked, want none", st.RepairsDone, len(st.Completed))
	}
}

// TestHealedStripeIsNotBookedAsARepair: a stripe queued for repair and
// healed by another pass before its turn leaves the queue when the
// poll reaches it, and books no repair.
func TestHealedStripeIsNotBookedAsARepair(t *testing.T) {
	h := newHarness(t, Config{SuspectAfter: 2 * time.Second, GraceWindow: 2 * time.Second})
	h.raided("f", 4096)
	h.mgr.Pause()
	h.cluster.FailMachine(h.victimOf("f"))
	for i := 0; i < 5; i++ {
		h.tick(time.Second)
	}
	if st := h.mgr.Status(); st.QueueDepth != 1 || st.DegradedStripes != 1 {
		t.Fatalf("the stripe is not queued: %+v", st)
	}
	if _, err := h.cluster.RunBlockFixer(); err != nil {
		t.Fatal(err)
	}
	h.mgr.Resume()
	h.tick(time.Second)
	st := h.mgr.Status()
	if st.QueueDepth != 0 || st.DegradedStripes != 0 {
		t.Fatalf("the healed stripe is still queued or degraded: %+v", st)
	}
	if st.RepairsDone != 0 || len(st.Completed) != 0 || st.RepairedBytes != 0 {
		t.Fatalf("a healthy stripe was booked as a repair: %d done, %+v", st.RepairsDone, st.Completed)
	}
}

// TestDrainOrderIsDeterministic: two managers over the same seeded
// cluster, under the same kill schedule, complete the same repairs in
// the same order. Most entries tie on priority (equal erasures, equal
// stripe sizes), and the queue is a map, so the first-queued tie-break
// alone makes the order repeat.
func TestDrainOrderIsDeterministic(t *testing.T) {
	type repair struct {
		Kind     TaskKind
		Stripe   hdfs.StripeID
		Block    hdfs.BlockID
		Erasures int
		Seq      int
	}
	run := func() []repair {
		h := newHarness(t, Config{SuspectAfter: 2 * time.Second, GraceWindow: 2 * time.Second})
		for i := 0; i < 16; i++ {
			h.raided(fmt.Sprintf("f%02d", i), 4096)
		}
		locs, err := h.cluster.BlockLocations("f00")
		if err != nil {
			t.Fatal(err)
		}
		h.cluster.FailMachine(locs[0][0])
		h.cluster.FailMachine(locs[1][0])
		for i := 0; i < 6; i++ {
			h.tick(time.Second)
		}
		if !h.cluster.Health().Healthy() {
			t.Fatalf("not healthy: %+v", h.cluster.Health())
		}
		var out []repair
		for _, c := range h.mgr.Status().Completed {
			out = append(out, repair{c.Kind, c.Stripe, c.Block, c.Erasures, c.Seq})
		}
		return out
	}
	a, b := run(), run()
	if len(a) < 4 {
		t.Fatalf("only %d repairs: too few for the order to show", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, same kills, different repair order:\n%+v\n%+v", a, b)
	}
}

// TestQueueDepthGaugesMatchStatus: the per-tier queue gauges read what
// Status reports — while a paused manager holds two deaths' repairs,
// and (all zero) once a poll has drained them.
func TestQueueDepthGaugesMatchStatus(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := newHarness(t, Config{SuspectAfter: 2 * time.Second, GraceWindow: 2 * time.Second, Telemetry: reg})
	for i := 0; i < 8; i++ {
		h.raided(string(rune('a'+i)), 4096)
	}
	// Two holders of file a's one stripe: it loses two blocks.
	locs, err := h.cluster.BlockLocations("a")
	if err != nil {
		t.Fatal(err)
	}
	h.mgr.Pause()
	h.cluster.FailMachine(locs[0][0])
	h.cluster.FailMachine(locs[1][0])
	for i := 0; i < 6; i++ {
		h.tick(time.Second)
	}
	st := h.mgr.Status()
	if st.QueueByErasures[1] == 0 || st.QueueByErasures[2] == 0 {
		t.Fatalf("paused two-death queue lacks a tier: %v", st.QueueByErasures)
	}
	h.checkGauges(reg, "paused", st)

	h.mgr.Resume()
	h.tick(time.Second)
	st = h.mgr.Status()
	if st.QueueDepth != 0 || len(st.QueueByErasures) != 0 {
		t.Fatalf("queue not drained: %+v", st)
	}
	h.checkGauges(reg, "drained", st)
}

// checkGauges fails the test unless the manager's queue and
// degradation gauges on reg read what st reports.
func (h *testHarness) checkGauges(reg *telemetry.Registry, when string, st Status) {
	t := h.t
	t.Helper()
	g := reg.Snapshot().Gauges
	if got := g["repair_queue_depth"]; got != float64(st.QueueDepth) {
		t.Errorf("%s: repair_queue_depth %v, Status.QueueDepth %d", when, got, st.QueueDepth)
	}
	for tier := 1; tier <= h.cluster.Code().ParityShards(); tier++ {
		name := fmt.Sprintf(`repair_queue_depth{erasures="%d"}`, tier)
		if got, ok := g[name]; !ok || got != float64(st.QueueByErasures[tier]) {
			t.Errorf("%s: %s %v (registered %v), Status.QueueByErasures[%d] %d",
				when, name, got, ok, tier, st.QueueByErasures[tier])
		}
	}
	if got := g["repair_degraded_stripes"]; got != float64(st.DegradedStripes) {
		t.Errorf("%s: repair_degraded_stripes %v, Status.DegradedStripes %d", when, got, st.DegradedStripes)
	}
	if got := g["repair_degraded_blocks"]; got != float64(st.DegradedBlocks) {
		t.Errorf("%s: repair_degraded_blocks %v, Status.DegradedBlocks %d", when, got, st.DegradedBlocks)
	}
}

// refusingStores is a StoreFactory of extent stores under a test
// directory whose Put fails while refuse is set: every repair
// destination then fails to store what it rebuilt.
func refusingStores(t *testing.T, refuse *atomic.Bool) func(int) (hdfs.BlockStore, error) {
	stores := hdfs.ExtentStoreFactory(t.TempDir(), extent.Options{})
	return func(machine int) (hdfs.BlockStore, error) {
		st, err := stores(machine)
		if err != nil {
			return nil, err
		}
		return refusingStore{st, refuse}, nil
	}
}

type refusingStore struct {
	hdfs.BlockStore
	refuse *atomic.Bool
}

func (s refusingStore) Put(id hdfs.BlockID, data []byte) error {
	if s.refuse.Load() {
		return errors.New("store refuses writes")
	}
	return s.BlockStore.Put(id, data)
}

// TestFailedRepairIsRetriedByTheNextPoll: a stripe repair whose
// destination cannot store the rebuilt block stays queued, and the
// first poll after the fault clears repairs it.
func TestFailedRepairIsRetriedByTheNextPoll(t *testing.T) {
	var refuse atomic.Bool
	h := newHarnessOn(t, Config{SuspectAfter: 3 * time.Second, GraceWindow: 5 * time.Second}, refusingStores(t, &refuse))
	data := h.raided("f", 4096)
	refuse.Store(true)
	h.cluster.FailMachine(h.victimOf("f"))
	for i := 0; i < 10; i++ {
		h.tick(time.Second)
	}
	st := h.mgr.Status()
	if st.RepairsDone != 1 || st.Unrecoverable != 1 || st.QueueDepth != 1 || st.DegradedStripes != 1 {
		t.Fatalf("after the failed repair: %d done, %d unrecoverable, depth %d, %d degraded stripes; want 1 each",
			st.RepairsDone, st.Unrecoverable, st.QueueDepth, st.DegradedStripes)
	}

	refuse.Store(false)
	h.tick(time.Second)
	st = h.mgr.Status()
	if !h.cluster.Health().Healthy() || st.QueueDepth != 0 || st.DegradedStripes != 0 {
		t.Fatalf("first poll after the fault cleared: healthy %v, depth %d, %d degraded stripes",
			h.cluster.Health().Healthy(), st.QueueDepth, st.DegradedStripes)
	}
	if len(st.Completed) != 2 || !st.Completed[0].Unrecoverable || st.Completed[1].Unrecoverable {
		t.Fatalf("completion log %+v; want the failure, then the success", st.Completed)
	}
	got, err := h.cluster.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content differs after the retried repair")
	}
}

// TestStuckRepairIsBookedOnce: a repair that fails on every poll, at
// the same erasure count, is retried each poll but booked once.
func TestStuckRepairIsBookedOnce(t *testing.T) {
	var refuse atomic.Bool
	reg := telemetry.NewRegistry()
	cfg := Config{SuspectAfter: 3 * time.Second, GraceWindow: 5 * time.Second, Telemetry: reg}
	h := newHarnessOn(t, cfg, refusingStores(t, &refuse))
	h.raided("f", 4096)
	refuse.Store(true)
	h.cluster.FailMachine(h.victimOf("f"))
	for i := 0; i < 20; i++ {
		h.tick(time.Second)
	}
	st := h.mgr.Status()
	if st.Unrecoverable != 1 || len(st.Completed) != 1 || st.QueueDepth != 1 {
		t.Fatalf("20 polls with the fault on: %d unrecoverable, %d booked, depth %d; want 1, 1, 1",
			st.Unrecoverable, len(st.Completed), st.QueueDepth)
	}
	h.checkGauges(reg, "stuck", st)
}
