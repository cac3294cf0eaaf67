package repairmgr

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/rs"
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
	cluster hdfs.Metadata
	mgr     *Manager
	clk     *fakeClock
}

func newHarness(t *testing.T, cfg Config) *testHarness {
	t.Helper()
	return newHarnessShards(t, cfg, 1)
}

// newHarnessShards is newHarness over a plane of the given shard count.
func newHarnessShards(t *testing.T, cfg Config, shards int) *testHarness {
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
		Topology:    cluster.Topology{Racks: 10, MachinesPerRack: 2},
		Code:        code,
		BlockSize:   1024,
		Replication: 3,
		Seed:        42,
		Shards:      shards,
	})
	if err != nil {
		t.Fatal(err)
	}
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

// TestManagerRunsOneLanePerShard: the manager builds its lanes from the
// plane's shard count — one lane over a one-shard plane, four over a
// four-shard one — and a machine death that degrades stripes of every
// shard heals through those lanes either way.
func TestManagerRunsOneLanePerShard(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h := newHarnessShards(t, Config{
				SuspectAfter: 3 * time.Second,
				GraceWindow:  5 * time.Second,
			}, shards)
			if got := h.mgr.Lanes(); got != shards {
				t.Fatalf("Lanes() = %d over a %d-shard plane", got, shards)
			}
			files := make(map[string][]byte)
			for d := 0; d < 24; d++ {
				name := fmt.Sprintf("d-%02d/f", d)
				files[name] = h.raided(name, 4096)
			}
			// The victim holds stripes of every shard, so every lane has work.
			victim := -1
			for m := 0; m < h.cluster.Machines() && victim < 0; m++ {
				owners := make(map[int]bool)
				for _, sid := range h.cluster.MachineInventory(m).Stripes {
					owners[h.cluster.ShardOfStripe(sid)] = true
				}
				if len(owners) == shards {
					victim = m
				}
			}
			if victim < 0 {
				t.Fatal("no machine holds stripes of every shard; grow the corpus")
			}
			h.cluster.FailMachine(victim)
			for i := 0; i < 10; i++ {
				h.tick(time.Second)
			}
			st := h.mgr.Status()
			if !h.cluster.Health().Healthy() || st.QueueDepth != 0 || st.DegradedStripes != 0 {
				t.Fatalf("not healed through %d lanes: %+v, status %+v", shards, h.cluster.Health(), st)
			}
			for name, want := range files {
				if got, err := h.cluster.ReadFile(name); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s after repair: %v", name, err)
				}
			}
		})
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
	if st := h.mgr.NodeState(victim); st != StateSuspect {
		t.Fatalf("victim state %v after 4s silence, want suspect", st)
	}
	// ...restore within the grace window, then run far past the point
	// where death would have been declared.
	h.cluster.RestoreMachine(victim)
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

// TestManagerThrottlePacesRepairs: a byte cap spreads the drain over
// multiple control ticks instead of repairing everything at once.
func TestManagerThrottlePacesRepairs(t *testing.T) {
	h := newHarness(t, Config{
		SuspectAfter: 2 * time.Second,
		GraceWindow:  0, // eager: repairs enqueue at the first deadline
		// Roughly one stripe repair (4 shards x 1 KiB padded) per two
		// seconds of refill.
		RepairBytesPerSec: 2048,
		RepairBurstBytes:  4096,
	})
	for i := 0; i < 6; i++ {
		h.raided(string(rune('a'+i)), 4096)
	}
	victim := h.victimOf("a")
	h.cluster.FailMachine(victim)
	queuedAfterKill := 0
	var drainTicks []int
	for i := 0; i < 60; i++ {
		h.tick(time.Second)
		st := h.mgr.Status()
		if st.QueueDepth+st.RepairsDone > queuedAfterKill {
			queuedAfterKill = st.QueueDepth + st.RepairsDone
		}
		drainTicks = append(drainTicks, st.RepairsDone)
		if st.QueueDepth == 0 && st.RepairsDone > 0 && h.cluster.Health().Healthy() {
			break
		}
	}
	st := h.mgr.Status()
	if !h.cluster.Health().Healthy() || st.RepairsDone == 0 {
		t.Fatalf("throttled manager never healed: %+v", st)
	}
	if queuedAfterKill < 2 {
		t.Skipf("victim held only %d repair targets; pacing unobservable", queuedAfterKill)
	}
	// Pacing means the drain was spread: some tick saw repairs both
	// done and still pending.
	spread := false
	for i := 1; i < len(drainTicks); i++ {
		if drainTicks[i] > drainTicks[i-1] && drainTicks[i] < st.RepairsDone {
			spread = true
		}
	}
	if !spread {
		t.Fatalf("throttle did not pace the drain: progression %v", drainTicks)
	}
}

// TestManagerScrubScheduling: the control loop runs incremental scrub
// slices on its timer, and a corrupt replica found by a slice flows
// through triage into a repair.
func TestManagerScrubScheduling(t *testing.T) {
	h := newHarness(t, Config{
		SuspectAfter:       3 * time.Second,
		GraceWindow:        5 * time.Second,
		ScrubInterval:      2 * time.Second,
		ScrubSliceMachines: 4,
	})
	data := h.raided("f", 4096)
	_, blocks, err := h.cluster.FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	victim := h.victimOf("f")
	if err := h.cluster.InjectBitRot(victim, blocks[0].ID, 3); err != nil {
		t.Fatal(err)
	}
	// 2s scrub interval, 4-machine slices, 20 machines: one full cycle
	// takes 10 slices = 20s of ticks. Run 30 to cover triage + repair.
	for i := 0; i < 30; i++ {
		h.tick(time.Second)
	}
	st := h.mgr.Status()
	if st.ScrubSlices == 0 || st.ScrubbedReplicas == 0 {
		t.Fatalf("scrubbing never ran: %+v", st)
	}
	if st.ScrubCorrupt != 1 {
		t.Fatalf("scrub found %d corrupt replicas, want 1", st.ScrubCorrupt)
	}
	if st.RepairsDone == 0 {
		t.Fatalf("corruption not repaired: %+v", st)
	}
	if !h.cluster.Health().Healthy() {
		t.Fatalf("cluster not healthy: %+v", h.cluster.Health())
	}
	got, err := h.cluster.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content differs after scrub-triggered repair")
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
