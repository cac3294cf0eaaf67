package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/extent"
	"repro/internal/hdfs"
	"repro/internal/repairmgr"
)

// withRepairConfig runs the System's repair manager on cfg instead of
// repairmgr.DefaultConfig(): the tests' one route to windows short
// enough to wait out.
func withRepairConfig(cfg repairmgr.Config) Option {
	return func(o *sysOptions) { o.mgrCfg = &cfg }
}

// startManagedSystem brings up a serving cluster whose repair manager
// runs on fast timings: detection settles in a few hundred
// milliseconds, so tests poll for outcomes instead of sleeping for
// fixed intervals.
func startManagedSystem(t *testing.T, mcfg repairmgr.Config) *System {
	t.Helper()
	return startTestSystem(t, testCodecs(t)[0], withRepairConfig(mcfg)) // rs(4,2)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, deadline time.Duration, desc string, cond func() bool) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", deadline, desc)
}

// waitSuspect waits until the failure detector has flagged the machine
// suspect AND the control-loop poll that flagged it has finished. The
// detector's state flips at the top of a poll, before the manager has
// recorded what the death would cost; a restart landing in that gap is
// credited with no saving, so tests that assert the grace-window save
// must not act on the bare state.
func waitSuspect(t *testing.T, sys *System, machine int, deadline time.Duration) {
	t.Helper()
	flaggedAt := int64(-1)
	waitFor(t, deadline, fmt.Sprintf("machine %d to turn suspect", machine), func() bool {
		st := sys.mgr.Status()
		if flaggedAt < 0 {
			if st.Nodes[machine].State != repairmgr.StateSuspect {
				return false
			}
			flaggedAt = st.PollCount
		}
		return st.PollCount > flaggedAt
	})
}

// preloadRaided writes and raids n files through the wire, returning
// their contents.
func preloadRaided(t *testing.T, sys *System, n int) map[string][]byte {
	t.Helper()
	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(3))
	out := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("f-%d", i)
		data := make([]byte, 3*4096+511)
		rng.Read(data)
		if err := cl.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
		if err := cl.RaidFile(name); err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

// TestManagedAutoRecoveryAfterKill is the headline acceptance
// property: after KillDataNode the cluster returns to full health with
// ZERO manual RunBlockFixer calls — detection, triage, and repair all
// happen inside the control plane.
func TestManagedAutoRecoveryAfterKill(t *testing.T) {
	sys := startManagedSystem(t, repairmgr.Config{
		SuspectAfter: 150 * time.Millisecond,
		GraceWindow:  150 * time.Millisecond,
		PollInterval: 20 * time.Millisecond,
	})
	files := preloadRaided(t, sys, 3)

	locs, err := sys.Cluster().BlockLocations("f-0")
	if err != nil {
		t.Fatal(err)
	}
	victim := locs[0][0]
	if err := sys.KillDataNode(victim); err != nil {
		t.Fatal(err)
	}
	if sys.Cluster().Health().Healthy() {
		t.Fatal("kill did not degrade the cluster")
	}

	waitFor(t, 30*time.Second, "autonomous recovery to full health", func() bool {
		return sys.Cluster().Health().Healthy() && sys.mgr.QueueDepth() == 0
	})

	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.RepairStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.RepairsDone == 0 || st.Unrecoverable != 0 {
		t.Fatalf("repair accounting: %+v", st)
	}
	// The liveness fields crossed the wire: a live Run loop has polled
	// (recently — the tick is 20ms) and the manager reports its age.
	if st.UptimeSeconds <= 0 || st.PollCount == 0 || st.SecondsSincePoll < 0 {
		t.Fatalf("control-loop liveness missing from repair.status: %+v", st)
	}
	if st.Nodes[victim].State != repairmgr.StateDead {
		t.Fatalf("victim detector state %v, want dead", st.Nodes[victim].State)
	}
	// Post-recovery reads are healthy (no degraded path) and
	// byte-identical.
	for name, want := range files {
		got, err := cl.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: content differs after autonomous repair", name)
		}
	}
	if c := cl.Counters(); c.DegradedBlocks != 0 {
		t.Fatalf("%d degraded block reads after full recovery", c.DegradedBlocks)
	}
}

// TestManagedRecoveryUnderLoad runs the kill-under-load loop on a
// managed cluster and keeps the clients reading and writing until the
// control plane has repaired the loss behind them: zero client-visible
// errors from the kill through detection, background repair, and the
// return to full health.
func TestManagedRecoveryUnderLoad(t *testing.T) {
	sys := startManagedSystem(t, repairmgr.Config{
		SuspectAfter: 150 * time.Millisecond,
		GraceWindow:  150 * time.Millisecond,
		PollInterval: 20 * time.Millisecond,
	})
	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	data := make([]byte, 6*4096)
	rand.New(rand.NewSource(5)).Read(data)
	if err := cl.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := cl.RaidFile("f"); err != nil {
		t.Fatal(err)
	}

	degraded := killUnderLoad(t, sys, data, func() bool {
		return sys.Cluster().Health().Healthy() && sys.mgr.QueueDepth() == 0
	})
	if degraded == 0 {
		t.Fatal("no read took the degraded path between the kill and the repair")
	}
	if st := sys.mgr.Status(); st.RepairsDone == 0 || st.Unrecoverable != 0 {
		t.Fatalf("cluster is healthy but the manager's accounting is %+v", st)
	}
}

// TestManagedRestartWithinGraceCancelsRepair is the satellite
// regression: RestartDataNode re-registers with the heartbeat detector,
// and a kill-then-restart inside the grace window produces ZERO repair
// traffic — the pending repair is cancelled, not raced.
func TestManagedRestartWithinGraceCancelsRepair(t *testing.T) {
	grace := 2 * time.Second
	sys := startManagedSystem(t, repairmgr.Config{
		SuspectAfter: 150 * time.Millisecond,
		GraceWindow:  grace,
		PollInterval: 20 * time.Millisecond,
	})
	preloadRaided(t, sys, 2)
	locs, err := sys.Cluster().BlockLocations("f-0")
	if err != nil {
		t.Fatal(err)
	}
	victim := locs[0][0]
	bytesBefore := sys.Cluster().Network().CrossRackBytes()

	killedAt := time.Now()
	if err := sys.KillDataNode(victim); err != nil {
		t.Fatal(err)
	}
	// Observe the suspect state (the delayed-repair timer armed) before
	// restarting — proving the cancel happened, not that detection
	// never fired.
	waitSuspect(t, sys, victim, grace/2)
	if err := sys.RestartDataNode(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, grace/2, "victim back to alive", func() bool {
		return sys.mgr.Status().Nodes[victim].State == repairmgr.StateAlive
	})

	// Sleep out the would-have-been death deadline plus margin, then
	// hold the assertion: no repairs, no queue, no cross-rack bytes.
	time.Sleep(time.Until(killedAt.Add(150*time.Millisecond + grace + 500*time.Millisecond)))
	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.RepairStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.RepairsDone != 0 || st.QueueDepth != 0 {
		t.Fatalf("transient restart triggered repairs: %+v", st)
	}
	if st.AvoidedRepairs == 0 || st.AvoidedRepairBytes == 0 {
		t.Fatalf("grace-window save not accounted: %+v", st)
	}
	if got := sys.Cluster().Network().CrossRackBytes() - bytesBefore; got != 0 {
		t.Fatalf("kill-then-restart inside the grace window moved %d repair bytes, want 0", got)
	}
	if st.Nodes[victim].State != repairmgr.StateAlive {
		t.Fatalf("victim state %v, want alive", st.Nodes[victim].State)
	}
}

// TestManagedPriorityOrderingViaStatusRPC: with draining paused, kill
// two machines that share at least one stripe; on resume, the status
// RPC's completion log shows every multi-erasure repair finishing
// before any single-erasure one.
func TestManagedPriorityOrderingViaStatusRPC(t *testing.T) {
	sys := startManagedSystem(t, repairmgr.Config{
		SuspectAfter: 150 * time.Millisecond,
		GraceWindow:  150 * time.Millisecond,
		PollInterval: 20 * time.Millisecond,
	})
	preloadRaided(t, sys, 8)
	c := sys.Cluster()

	// Find two machines sharing at least one stripe, with some stripes
	// on exactly one of them (the singles).
	m1, m2, shared := -1, -1, 0
	for a := 0; a < c.Machines() && m1 < 0; a++ {
		for b := a + 1; b < c.Machines(); b++ {
			inB := make(map[hdfs.StripeID]bool)
			for _, s := range c.MachineInventory(b).Stripes {
				inB[s] = true
			}
			n, only := 0, 0
			for _, s := range c.MachineInventory(a).Stripes {
				if inB[s] {
					n++
				} else {
					only++
				}
			}
			if n > 0 && only > 0 {
				m1, m2, shared = a, b, n
				break
			}
		}
	}
	if m1 < 0 {
		t.Skip("no machine pair shares a stripe under this seed")
	}

	sys.mgr.Pause()
	if err := sys.KillDataNode(m1); err != nil {
		t.Fatal(err)
	}
	if err := sys.KillDataNode(m2); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitFor(t, 30*time.Second, "both deaths triaged into the paused queue", func() bool {
		st, err := cl.RepairStatus()
		return err == nil && st.QueueByErasures[2] == shared && st.RepairsDone == 0 &&
			st.Nodes[m1].State == repairmgr.StateDead && st.Nodes[m2].State == repairmgr.StateDead
	})
	sys.mgr.Resume()
	waitFor(t, 30*time.Second, "resumed drain to full health", func() bool {
		return c.Health().Healthy() && sys.mgr.QueueDepth() == 0
	})

	st, err := cl.RepairStatus()
	if err != nil {
		t.Fatal(err)
	}
	lastMulti, firstSingle := -1, -1
	multis := 0
	for _, f := range st.Completed {
		switch {
		case f.Erasures >= 2:
			multis++
			if f.Seq > lastMulti {
				lastMulti = f.Seq
			}
		case f.Erasures == 1 && (firstSingle < 0 || f.Seq < firstSingle):
			firstSingle = f.Seq
		}
	}
	if multis != shared || firstSingle < 0 {
		t.Fatalf("completion log: %d multis (want %d), firstSingle %d: %+v", multis, shared, firstSingle, st.Completed)
	}
	if lastMulti > firstSingle {
		t.Fatalf("priority violated: single seq %d completed before multi seq %d", firstSingle, lastMulti)
	}
}

// TestEverySystemRunsTheManager: a System started with no options
// runs the repair manager — every node alive, the control loop
// polling — and the status crosses the wire with states by name.
func TestEverySystemRunsTheManager(t *testing.T) {
	sys := startTestSystem(t, testCodecs(t)[0])
	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var st *repairmgr.Status
	waitFor(t, 30*time.Second, "the default manager's first poll", func() bool {
		st, err = cl.RepairStatus()
		if err != nil {
			t.Fatal(err)
		}
		return st.PollCount > 0
	})
	if len(st.Nodes) != sys.Cluster().Machines() {
		t.Fatalf("status tracks %d nodes, want %d", len(st.Nodes), sys.Cluster().Machines())
	}
	for _, n := range st.Nodes {
		if n.State != repairmgr.StateAlive {
			t.Fatalf("node %d is %v on a fresh system", n.Machine, n.State)
		}
	}
	if st.QueueDepth != 0 || st.RepairsDone != 0 {
		t.Fatalf("a fresh system has repair work: %+v", st)
	}
}

// TestRunBlockFixerIsTheManagersRepairNow: with the default 15-minute
// grace window nothing repairs a killed machine on its own; the fixer
// RPC repairs it at once, leaves the manager's queue empty, and its
// bytes join the manager's RepairedBytes.
func TestRunBlockFixerIsTheManagersRepairNow(t *testing.T) {
	sys := startTestSystem(t, testCodecs(t)[0])
	files := preloadRaided(t, sys, 3)
	killFirstBlockHolder(t, sys, "f-0")
	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	x0 := sys.Cluster().Network().CrossRackBytes()
	rep, err := cl.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairedStriped == 0 || rep.Unrecoverable != 0 {
		t.Fatalf("fixer report %+v", rep)
	}
	if !sys.Cluster().Health().Healthy() {
		t.Fatal("cluster unhealthy after the fixer")
	}
	st, err := cl.RepairStatus()
	if err != nil {
		t.Fatal(err)
	}
	moved := sys.Cluster().Network().CrossRackBytes() - x0
	if st.QueueDepth != 0 || st.RepairedBytes != moved || moved == 0 {
		t.Fatalf("status after the fixer: queue %d, %d repaired bytes; the pass moved %d",
			st.QueueDepth, st.RepairedBytes, moved)
	}
	for name, want := range files {
		if got, err := cl.ReadFile(name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after the fixer: %v", name, err)
		}
	}
}

// TestRepairNowLeavesNoGraceSaveToCredit: a machine killed, flagged
// suspect, repaired around by the fixer RPC and then restarted saved
// nothing — its blocks were rebuilt — so AvoidedRepairs stays 0.
func TestRepairNowLeavesNoGraceSaveToCredit(t *testing.T) {
	sys := startManagedSystem(t, repairmgr.Config{
		SuspectAfter: 150 * time.Millisecond,
		GraceWindow:  time.Hour,
		PollInterval: 20 * time.Millisecond,
	})
	preloadRaided(t, sys, 2)
	victim := killFirstBlockHolder(t, sys, "f-0")
	waitSuspect(t, sys, victim, 30*time.Second)
	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.RunBlockFixer(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RestartDataNode(victim); err != nil {
		t.Fatal(err)
	}
	// The restart's beat queued the suspect → alive transition; a poll
	// that began after it has handled it.
	polls := sys.mgr.Status().PollCount
	waitFor(t, 30*time.Second, "a poll begun after the restart", func() bool {
		return sys.mgr.Status().PollCount > polls+1
	})
	st, err := cl.RepairStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.AvoidedRepairs != 0 || st.AvoidedRepairBytes != 0 {
		t.Fatalf("restart after the fixer credited a grace save: %+v", st)
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

// TestAutonomousRepairRetriesAfterAFailedStore: repairs whose
// destinations refuse the rebuilt blocks stay queued, and once the
// stores take writes again the control loop retries them to full
// health with no operator call.
func TestAutonomousRepairRetriesAfterAFailedStore(t *testing.T) {
	var refuse atomic.Bool
	cfg := testConfig(testCodecs(t)[0]) // rs(4,2)
	cfg.StoreFactory = refusingStores(t, &refuse)
	sys := startSystem(t, cfg, withRepairConfig(repairmgr.Config{
		SuspectAfter: 150 * time.Millisecond,
		GraceWindow:  150 * time.Millisecond,
		PollInterval: 20 * time.Millisecond,
	}))
	files := preloadRaided(t, sys, 3)
	refuse.Store(true)
	killFirstBlockHolder(t, sys, "f-0")
	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitFor(t, 30*time.Second, "a failed repair still queued", func() bool {
		st, err := cl.RepairStatus()
		return err == nil && st.Unrecoverable > 0 && st.QueueDepth > 0
	})

	refuse.Store(false)
	waitFor(t, 30*time.Second, "the retried repairs to restore full health", func() bool {
		return sys.Cluster().Health().Healthy() && sys.mgr.QueueDepth() == 0
	})
	for name, want := range files {
		if got, err := cl.ReadFile(name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after the retried repair: %v", name, err)
		}
	}
}
