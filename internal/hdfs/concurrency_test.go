package hdfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// TestConcurrentClusterAccess hammers one cluster with parallel
// readers, writers, a machine failer, and a block-fixer loop — the
// serving layer's access pattern — and asserts no update is lost:
// every file ever written reads back byte-identical, both during the
// storm (with bounded retries around transient unavailability) and
// after it settles. Run under -race, this is the proof the metadata
// RWMutex + per-datanode lock decomposition is sound.
func TestConcurrentClusterAccess(t *testing.T) {
	runConcurrentAccessStorm(t, stormCluster(t, 1))
}

// stormCluster builds the plane the storm runs against.
func stormCluster(t *testing.T, shards int) *Cluster {
	t.Helper()
	return newForTest(t, Config{
		Topology:          cluster.Topology{Racks: 10, MachinesPerRack: 2},
		Code:              pbCode(t),
		BlockSize:         2048,
		Replication:       3,
		Seed:              11,
		Shards:            shards,
		RepairParallelism: 2,
	})
}

// TestConcurrentShardedClusterAccess runs the same storm against a
// four-shard plane. Every file gets its own directory, so the writers'
// names route across shards (cross-shard writes racing fan-out fixer
// passes and machine deaths observed by all shards); under -race this
// is the proof the per-shard locks plus the shared physical plane
// compose soundly.
func TestConcurrentShardedClusterAccess(t *testing.T) {
	s := stormCluster(t, 4)
	runConcurrentAccessStorm(t, s)
	// The storm must actually have spanned shards: the per-directory
	// names route to at least two of them.
	used := make(map[int]bool)
	for w := 0; w < 2; w++ {
		for i := 0; i < stormIters; i++ {
			used[s.ShardOf(fmt.Sprintf("w-%d-%d/part", w, i))] = true
		}
	}
	if len(used) < 2 {
		t.Fatalf("storm writes all routed to one shard of %d", s.Shards())
	}
}

// TestStoreRePlacesAReplicaWhoseMachineDied is the storm's "datanode
// down" failure made deterministic: the machine a placement picked dies
// before the store reaches it (at more than one shard, to a FailMachine
// holding another shard's lock). The replica lands on another live
// machine, off the racks the rest of the placement uses; with no live
// machine left the store fails.
func TestStoreRePlacesAReplicaWhoseMachineDied(t *testing.T) {
	c := only(t, testCluster(t, pbCode(t), 5))
	c.lockMeta()
	defer c.mu.Unlock()
	placement, err := c.placeLiveLocked(c.cfg.Replication)
	if err != nil {
		t.Fatal(err)
	}
	dead := placement[1]
	c.nodes[dead].setAlive(false)
	got, err := c.storePlacedLocked(placement, 1, 7, []byte("replica"))
	if err != nil {
		t.Fatalf("store on a placement whose machine died: %v", err)
	}
	if got == dead || got != placement[1] || !c.nodes[got].isAlive() || !c.nodes[got].has(7) {
		t.Fatalf("replica went to machine %d (placement now %v), want a live machine other than %d holding it", got, placement, dead)
	}
	racks := make(map[int]bool)
	for _, m := range placement {
		racks[c.cfg.Topology.RackOf(m)] = true
	}
	if len(racks) != len(placement) {
		t.Fatalf("placement %v after the move shares a rack", placement)
	}

	// Every machine dead: there is nowhere to re-place to.
	for _, n := range c.nodes {
		n.setAlive(false)
	}
	if _, err := c.storePlacedLocked(placement, 0, 8, []byte("replica")); err == nil {
		t.Fatal("store succeeded with every machine down")
	}
}

const stormIters = 40

// runConcurrentAccessStorm is the storm body, run against a one-shard
// and a four-shard plane.
func runConcurrentAccessStorm(t *testing.T, c Metadata) {
	t.Helper()

	// expected maps every written file to its content; files lists the
	// names readers may pick from. Both grow as writers land files.
	var stateMu sync.Mutex
	expected := make(map[string][]byte)
	var files []string
	addFile := func(name string, data []byte) {
		stateMu.Lock()
		expected[name] = data
		files = append(files, name)
		stateMu.Unlock()
	}
	pickFile := func(rng *rand.Rand) (string, []byte) {
		stateMu.Lock()
		defer stateMu.Unlock()
		name := files[rng.Intn(len(files))]
		return name, expected[name]
	}

	content := func(seed int64, n int) []byte {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, n)
		rng.Read(buf)
		return buf
	}

	// Preload: six files, half raided, so readers exercise replicated,
	// striped, and degraded paths from the first iteration. One
	// directory per file, so a sharded plane spreads them.
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("base-%d/blk", i)
		data := content(int64(100+i), 5*2048)
		if err := c.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := c.RaidFile(name); err != nil {
				t.Fatal(err)
			}
		}
		addFile(name, data)
	}

	const iters = stormIters
	var wg sync.WaitGroup
	errc := make(chan error, 256)

	// Writers land fresh files.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("w-%d-%d/part", w, i)
				data := content(int64(1000*w+i), 3*2048)
				if err := c.WriteFile(name, data); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				addFile(name, data)
			}
		}(w)
	}

	// Readers verify content, tolerating bounded transient failures
	// (a holder can die between the liveness check and the read while
	// at most one machine is down).
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(50 + r)))
			for i := 0; i < 3*iters; i++ {
				name, want := pickFile(rng)
				var got []byte
				var err error
				for attempt := 0; attempt < 8; attempt++ {
					got, err = c.ReadFile(name)
					if err == nil {
						break
					}
				}
				if err != nil {
					errc <- fmt.Errorf("reader %d: %s: %w", r, name, err)
					return
				}
				if !bytes.Equal(got, want) {
					errc <- fmt.Errorf("reader %d: %s content mismatch", r, name)
					return
				}
			}
		}(r)
	}

	// One failer cycles single-machine outages (the §2.2 dominant
	// case); the cluster never has more than one machine down.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < iters; i++ {
			m := rng.Intn(c.Machines())
			c.FailMachine(m)
			c.RestoreMachine(m)
			m = rng.Intn(c.Machines())
			c.FailMachine(m)
			if _, err := c.RunBlockFixer(); err != nil {
				errc <- fmt.Errorf("failer fixer: %w", err)
				c.RestoreMachine(m)
				return
			}
			c.RestoreMachine(m)
		}
	}()

	// An independent fixer loop races the failer's passes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			if _, err := c.RunBlockFixer(); err != nil {
				errc <- fmt.Errorf("fixer: %w", err)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Settle: everything restored, one final fixer pass, then every
	// file ever written must read back byte-identical — the "no lost
	// updates" bar.
	for m := 0; m < c.Machines(); m++ {
		c.RestoreMachine(m)
	}
	if _, err := c.RunBlockFixer(); err != nil {
		t.Fatal(err)
	}
	stateMu.Lock()
	defer stateMu.Unlock()
	if len(expected) != 6+2*iters {
		t.Fatalf("expected %d files recorded, have %d", 6+2*iters, len(expected))
	}
	for name, want := range expected {
		got, err := c.ReadFile(name)
		if err != nil {
			t.Fatalf("settled read %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("settled read %s: content mismatch", name)
		}
	}
	st := c.Stats()
	if st.Files != 6+2*iters {
		t.Fatalf("cluster reports %d files, want %d", st.Files, 6+2*iters)
	}
	if st.LiveMachines != c.Machines() {
		t.Fatalf("cluster reports %d live machines, want %d", st.LiveMachines, c.Machines())
	}
}

// TestReadSpreadsAcrossReplicas is the hot-replica fix's regression
// test: with three replicas, repeated reads must touch more than one
// holder (the old code always read locations[0]).
func TestReadSpreadsAcrossReplicas(t *testing.T) {
	code, err := core.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Topology:    cluster.Topology{Racks: 8, MachinesPerRack: 2},
		Code:        code,
		BlockSize:   4096,
		Replication: 3,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("spread"), 512)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	locs, err := c.BlockLocations("f")
	if err != nil {
		t.Fatal(err)
	}
	holders := locs[0]
	if len(holders) != 3 {
		t.Fatalf("want 3 replicas, have %v", holders)
	}
	// Fail each holder in turn except one: a read must still succeed
	// regardless of which single holder survives — i.e. the read path
	// is not pinned to holders[0].
	for _, survivor := range holders {
		for _, m := range holders {
			if m != survivor {
				c.FailMachine(m)
			}
		}
		got, err := c.ReadFile("f")
		if err != nil {
			t.Fatalf("read with only holder %d alive: %v", survivor, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read with only holder %d alive: mismatch", survivor)
		}
		for _, m := range holders {
			c.RestoreMachine(m)
		}
	}
	// And under full health, the seeded rng must not always pick the
	// same holder: run many reads and watch the per-node read skew via
	// which replicas serve. We can't observe the chosen node directly,
	// so assert distribution indirectly: failing holders[0] must not
	// change read results or error, and repeated healthy reads still
	// succeed (smoke), while the rng-driven choice is covered by the
	// survivor sweep above.
	for i := 0; i < 16; i++ {
		if _, err := c.ReadFile("f"); err != nil {
			t.Fatal(err)
		}
	}
}
