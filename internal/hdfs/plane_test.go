package hdfs

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/extent"
	"repro/internal/telemetry"
)

// TestOneShardPlacementIsPinned pins what a one-shard plane does with a
// seed to what the single-lock cluster of every earlier revision did
// with it: the values below were captured from that cluster (seed 42,
// testCluster's topology) before the plane replaced it. Shard 0 draws
// the placement stream of Seed itself, block and stripe ids are dense
// from 0, and the shard's gauges carry the label shard="0" — so seeded
// experiments and dashboards carry over unchanged.
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
		{"dir/b", 6*1024 + 100, true, [][]int{{9}, {56}, {19}, {44}, {12}, {8}, {37}}},
		{"c", 1024, true, [][]int{{39}}},
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
		{{3, []int{9}}, {4, []int{56}}, {5, []int{19}}, {6, []int{44}}, {10, []int{26}}, {11, []int{5}}},
		{{7, []int{12}}, {8, []int{8}}, {9, []int{37}}, {-1, nil}, {12, []int{29}}, {13, []int{43}}},
		{{14, []int{39}}, {-1, nil}, {-1, nil}, {-1, nil}, {15, []int{54}}, {16, []int{37}}},
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
	if ops, ok := gauges[`hdfs_meta_ops{shard="0"}`]; !ok || ops == 0 {
		t.Fatalf(`no hdfs_meta_ops{shard="0"} gauge counting the operations above: %v`, gauges)
	}
	if _, ok := gauges[`hdfs_lock_wait_seconds{shard="0"}`]; !ok {
		t.Fatalf(`no hdfs_lock_wait_seconds{shard="0"} gauge: %v`, gauges)
	}
}

// TestBlocksOnSurvivesACrashOnEveryShard: the repair manager asks what a
// machine held right after it died, when a persistent node's index is
// gone and only metadata can answer — and at four shards three quarters
// of that metadata lives outside shard 0. The answer must not change
// when the store closes.
func TestBlocksOnSurvivesACrashOnEveryShard(t *testing.T) {
	eachShardCount(t, func(t *testing.T, nShards int) {
		c := newForTest(t, Config{
			Topology:     cluster.Topology{Racks: 8, MachinesPerRack: 2},
			Code:         pbCode(t),
			BlockSize:    1024,
			Replication:  3,
			Seed:         11,
			Shards:       nShards,
			StoreFactory: ExtentStoreFactory(t.TempDir(), extent.Options{}),
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
		owners := make(map[int]bool)
		for _, id := range before {
			owners[c.ShardOfBlock(id)] = true
		}
		if len(owners) != nShards {
			t.Fatalf("machine %d holds blocks of %d shards out of %d; grow the corpus", victim, len(owners), nShards)
		}
		if err := c.CrashMachine(victim); err != nil {
			t.Fatal(err)
		}
		if after := c.BlocksOn(victim); !slices.Equal(before, after) {
			t.Fatalf("BlocksOn(%d) = %v before the crash, %v after", victim, before, after)
		}
	})
}
