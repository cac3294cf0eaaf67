package hdfs

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// TestOneShardPlacementIsPinned pins what the cluster does with a seed
// to what the single-lock cluster of every earlier revision did with
// it: the values below were captured from that cluster (seed 42,
// testCluster's topology), the raided ones again once a raid kept each
// data block on one of its holders. Placement draws the stream of Seed
// itself, block and stripe ids are dense from 0, and the metadata-lock
// gauges are published — so seeded experiments carry over unchanged.
func TestOneShardPlacementIsPinned(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newForTest(t, Config{
		Topology:    cluster.Topology{Racks: 20, MachinesPerRack: 3},
		Code:        pbCode(t),
		BlockSize:   1024,
		Replication: 3,
		Seed:        42,
		Telemetry:   reg,
	})
	for _, f := range []struct {
		name string
		size int
		raid bool
		want [][]int
	}{
		{"a", 3 * 1024, false, [][]int{{37, 15, 43}, {41, 17, 10}, {8, 32, 46}}},
		{"dir/b", 6*1024 + 100, true, [][]int{{31}, {12}, {26}, {2}, {51}, {6}, {33}}},
		{"c", 1024, true, [][]int{{51}}},
	} {
		if err := c.WriteFile(f.name, randBytes(7, f.size)); err != nil {
			t.Fatal(err)
		}
		if f.raid {
			if err := c.RaidFile(f.name); err != nil {
				t.Fatal(err)
			}
		}
		got, err := c.BlockLocations(f.name)
		if err != nil || !reflect.DeepEqual(got, f.want) {
			t.Fatalf("BlockLocations(%q) = %v, %v; the single-lock cluster placed it at %v", f.name, got, err, f.want)
		}
	}
	type pos struct {
		block BlockID
		at    []int
	}
	for sid, want := range [][]pos{
		{{3, []int{31}}, {4, []int{12}}, {5, []int{26}}, {6, []int{2}}, {10, []int{29}}, {11, []int{38}}},
		{{7, []int{51}}, {8, []int{6}}, {9, []int{33}}, {-1, nil}, {12, []int{37}}, {13, []int{58}}},
		{{14, []int{51}}, {-1, nil}, {-1, nil}, {-1, nil}, {15, []int{22}}, {16, []int{20}}},
	} {
		d, err := c.Stripe(StripeID(sid))
		if err != nil || d.ShardSize != 1024 || len(d.Positions) != len(want) {
			t.Fatalf("Stripe(%d) = %+v, %v", sid, d, err)
		}
		for i, p := range d.Positions {
			if p.Block != want[i].block || !slices.Equal(p.Locations, want[i].at) {
				t.Fatalf("stripe %d position %d = block %d at %v, the single-lock cluster had block %d at %v",
					sid, i, p.Block, p.Locations, want[i].block, want[i].at)
			}
		}
	}
	if _, err := c.Stripe(3); err == nil {
		t.Fatal("a fourth stripe exists: stripe ids are not dense")
	}
	gauges := reg.Snapshot().Gauges
	if ops, ok := gauges["hdfs_meta_ops"]; !ok || ops == 0 {
		t.Fatalf("no hdfs_meta_ops gauge counting the operations above: %v", gauges)
	}
	if _, ok := gauges["hdfs_lock_wait_seconds"]; !ok {
		t.Fatalf("no hdfs_lock_wait_seconds gauge: %v", gauges)
	}
}

// TestBlocksOnSurvivesACrash: the repair manager asks what a machine
// held right after it died, when the node's index is gone and only
// metadata can answer. The answer must not change when the store
// closes.
func TestBlocksOnSurvivesACrash(t *testing.T) {
	c := newForTest(t, Config{
		Topology:    cluster.Topology{Racks: 8, MachinesPerRack: 2},
		Code:        pbCode(t),
		BlockSize:   1024,
		Replication: 3,
		Seed:        11,
	})
	for d := 0; d < 24; d++ {
		name := fmt.Sprintf("d-%02d/f", d)
		if err := c.WriteFile(name, randBytes(int64(d), 4*1024)); err != nil {
			t.Fatal(err)
		}
		if d%2 == 0 {
			if err := c.RaidFile(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	const victim = 3
	before := c.BlocksOn(victim)
	if len(before) == 0 {
		t.Fatalf("machine %d holds no blocks; grow the corpus", victim)
	}
	if err := c.CrashMachine(victim); err != nil {
		t.Fatal(err)
	}
	if after := c.BlocksOn(victim); !slices.Equal(before, after) {
		t.Fatalf("BlocksOn(%d) = %v before the crash, %v after", victim, before, after)
	}
}

// TestMachineDeathHealsInOneFixerPass: a machine death degrades the
// health of the blocks it held, and one fixer pass heals them all with
// the machine still down.
func TestMachineDeathHealsInOneFixerPass(t *testing.T) {
	s := newForTest(t, Config{
		Topology:    cluster.Topology{Racks: 8, MachinesPerRack: 2},
		Code:        pbCode(t),
		BlockSize:   2048,
		Replication: 3,
		Seed:        33,
	})
	for d := 0; d < 32; d++ {
		for f := 0; f < 3; f++ {
			name := fmt.Sprintf("job-%02d/out-%d", d, f)
			if err := s.WriteFile(name, bytes.Repeat([]byte{byte(d)}, 4*2048)); err != nil {
				t.Fatal(err)
			}
			if f == 0 {
				if err := s.RaidFile(name); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// With 96 files over 16 machines, machine 0 holds both stripes and
	// replicated blocks; fail loudly if not.
	const victim = 0
	if inv := s.MachineInventory(victim); len(inv.Stripes) == 0 || len(inv.Replicated) == 0 {
		t.Fatalf("machine %d holds %+v; grow the corpus", victim, inv)
	}
	if h := s.Health(); !h.Healthy() {
		t.Fatalf("unhealthy before the death: %+v", h)
	}

	s.FailMachine(victim)
	if s.MachineAlive(victim) {
		t.Fatalf("machine %d still alive", victim)
	}
	if h := s.Health(); h.MissingStriped == 0 || h.UnderReplicated == 0 {
		t.Fatalf("machine %d held stripes and replicas but health is %+v after its death", victim, h)
	}

	rep, err := s.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairedStriped == 0 || rep.ReReplicated == 0 {
		t.Fatalf("fixer pass repaired too little: %+v", rep)
	}
	if len(rep.Unrecoverable) != 0 {
		t.Fatalf("fixer reports unrecoverable blocks: %v", rep.Unrecoverable)
	}
	if h := s.Health(); !h.Healthy() {
		t.Fatalf("still degraded after the fixer pass: %+v", h)
	}
}
