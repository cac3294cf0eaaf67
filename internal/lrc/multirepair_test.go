package lrc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/ec"
)

func TestMultiRepairTwoGroupsRepairLocally(t *testing.T) {
	// One missing data shard per local group: both repair locally, so
	// the joint plan reads each group once — 10 shards total for
	// (10,4,2), same as two separate local repairs but planned jointly.
	c, _ := New(10, 4, 2)
	const size = 4096
	plan, err := c.PlanMultiRepair([]int{0, 5}, size, ec.AllAliveExcept(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalBytes() != 10*size {
		t.Fatalf("two local repairs read %d, want %d", plan.TotalBytes(), 10*size)
	}
}

func TestMultiRepairSameGroupFallsBackToGlobal(t *testing.T) {
	// Two missing in one local group: the group cannot self-heal, the
	// planner must schedule a global decode.
	c, _ := New(10, 4, 2)
	const size = 4096
	plan, err := c.PlanMultiRepair([]int{0, 1}, size, ec.AllAliveExcept(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalBytes() != 10*size {
		t.Fatalf("global fallback reads %d, want %d (k shards)", plan.TotalBytes(), 10*size)
	}
	for _, r := range plan.Reads {
		if r.Shard == 0 || r.Shard == 1 {
			t.Fatal("plan reads a missing shard")
		}
	}
}

func TestMultiRepairChainsGlobalThenLocal(t *testing.T) {
	// Two data shards of one group plus the other group's local parity:
	// global decode restores the data, then the second group's parity
	// repairs locally from members the plan already covers or reads.
	c, _ := New(10, 4, 2)
	rng := rand.New(rand.NewSource(1))
	orig := randShards(rng, c, 256)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	missing := []int{0, 1, 15}
	got, err := c.ExecuteMultiRepair(missing, 256, ec.AllAliveExcept(missing...), memFetch(orig))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range missing {
		if !bytes.Equal(got[m], orig[m]) {
			t.Fatalf("shard %d wrong", m)
		}
	}
}

func TestExecuteMultiRepairAllPairsXorbas(t *testing.T) {
	c, _ := New(10, 4, 2)
	checkAllPairs(t, c, 2)
}

// TestExecuteMultiRepairAllPairsThreeGroups: with three local groups a
// plan can leave a whole group unread ({0,2} of (6,3,3) reads only the
// first two groups), and the executor must stop once the missing shards
// are filled rather than fail on the group it cannot rebuild.
func TestExecuteMultiRepairAllPairsThreeGroups(t *testing.T) {
	c, _ := New(6, 3, 3)
	checkAllPairs(t, c, 4)
}

// checkAllPairs repairs every pair of shards jointly and checks the
// bytes and that exactly the plan's bytes were fetched.
func checkAllPairs(t *testing.T, c *Code, seed int64) {
	t.Helper()
	const size = 64
	orig := randShards(rand.New(rand.NewSource(seed)), c, size)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	n := c.TotalShards()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			alive := ec.AllAliveExcept(i, j)
			plan, err := c.PlanMultiRepair([]int{i, j}, size, alive)
			if err != nil {
				t.Fatalf("pair (%d,%d): plan: %v", i, j, err)
			}
			var fetched int64
			fetch := memFetch(orig)
			got, err := c.ExecuteMultiRepair([]int{i, j}, size, alive, func(req ec.ReadRequest) ([]byte, error) {
				fetched += req.Length
				return fetch(req)
			})
			if err != nil {
				t.Fatalf("pair (%d,%d): %v", i, j, err)
			}
			if !bytes.Equal(got[i], orig[i]) || !bytes.Equal(got[j], orig[j]) {
				t.Fatalf("pair (%d,%d): wrong bytes", i, j)
			}
			if fetched != plan.TotalBytes() {
				t.Fatalf("pair (%d,%d): fetched %d bytes, plan charges %d", i, j, fetched, plan.TotalBytes())
			}
		}
	}
}

func TestExecuteMultiRepairOnlyTouchesPlannedReads(t *testing.T) {
	c, _ := New(10, 4, 2)
	rng := rand.New(rand.NewSource(3))
	orig := randShards(rng, c, 64)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanMultiRepair([]int{0}, 64, ec.AllAliveExcept(0))
	if err != nil {
		t.Fatal(err)
	}
	planned := make(map[int]bool)
	for _, r := range plan.Reads {
		planned[r.Shard] = true
	}
	fetched := make(map[int]bool)
	_, err = c.ExecuteMultiRepair([]int{0}, 64, ec.AllAliveExcept(0), func(req ec.ReadRequest) ([]byte, error) {
		fetched[req.Shard] = true
		return orig[req.Shard], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := range fetched {
		if !planned[s] {
			t.Fatalf("execution fetched unplanned shard %d", s)
		}
	}
}

func TestMultiRepairUnrecoverable(t *testing.T) {
	c, _ := New(10, 4, 2)
	missing := []int{0, 1, 2, 3, 4, 14} // whole group + its parity
	if _, err := c.PlanMultiRepair(missing, 64, ec.AllAliveExcept(missing...)); !errors.Is(err, ec.ErrTooFewShards) {
		t.Fatalf("expected ErrTooFewShards, got %v", err)
	}
}
