package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/hdfs"
	"repro/internal/repairmgr"
)

// startManagedSystem brings up a serving cluster with the repair
// control plane enabled on fast timings: detection settles in a few
// hundred milliseconds, so tests poll for outcomes instead of
// sleeping for fixed intervals.
func startManagedSystem(t *testing.T, mcfg repairmgr.Config) *System {
	t.Helper()
	return startTestSystem(t, testCodecs(t)[0], WithRepairManager(mcfg)) // rs(4,2)
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
	mgr := sys.RepairManager()
	flaggedAt := int64(-1)
	waitFor(t, deadline, fmt.Sprintf("machine %d to turn suspect", machine), func() bool {
		if flaggedAt < 0 {
			if mgr.NodeState(machine) != repairmgr.StateSuspect {
				return false
			}
			flaggedAt = mgr.Status().PollCount
		}
		return mgr.Status().PollCount > flaggedAt
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
		return sys.Cluster().Health().Healthy() && sys.RepairManager().QueueDepth() == 0
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
	if st.Nodes[victim].State != "dead" {
		t.Fatalf("victim detector state %q, want dead", st.Nodes[victim].State)
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
		return sys.Cluster().Health().Healthy() && sys.RepairManager().QueueDepth() == 0
	})
	if degraded == 0 {
		t.Fatal("no read took the degraded path between the kill and the repair")
	}
	if st := sys.RepairManager().Status(); st.RepairsDone == 0 || st.Unrecoverable != 0 {
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
		return sys.RepairManager().NodeState(victim) == repairmgr.StateAlive
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
	if st.AvoidedRepairs == 0 || st.AvoidedBytes == 0 {
		t.Fatalf("grace-window save not accounted: %+v", st)
	}
	if got := sys.Cluster().Network().CrossRackBytes() - bytesBefore; got != 0 {
		t.Fatalf("kill-then-restart inside the grace window moved %d repair bytes, want 0", got)
	}
	if st.Nodes[victim].State != "alive" {
		t.Fatalf("victim state %q, want alive", st.Nodes[victim].State)
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

	sys.RepairManager().Pause()
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
			st.Nodes[m1].State == "dead" && st.Nodes[m2].State == "dead"
	})
	sys.RepairManager().Resume()
	waitFor(t, 30*time.Second, "resumed drain to full health", func() bool {
		return c.Health().Healthy() && sys.RepairManager().QueueDepth() == 0
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

// TestRepairStatusWithoutManager: the status RPC on an unmanaged
// cluster is a definitive remote error, and heartbeats are rejected.
func TestRepairStatusWithoutManager(t *testing.T) {
	sys := startTestSystem(t, testCodecs(t)[0])
	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.RepairStatus(); err == nil {
		t.Fatal("status RPC succeeded without a manager")
	} else if _, ok := err.(*RemoteError); !ok {
		t.Fatalf("want RemoteError, got %T: %v", err, err)
	}
	if sys.RepairManager() != nil {
		t.Fatal("unmanaged system exposes a manager")
	}
}
