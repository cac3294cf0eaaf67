package hdfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// newPlaneForTest builds a plane of the given shard count over 16
// machines.
func newPlaneForTest(t *testing.T, shards int, seed int64) *Cluster {
	t.Helper()
	return newForTest(t, Config{
		Topology:    cluster.Topology{Racks: 8, MachinesPerRack: 2},
		Code:        pbCode(t),
		BlockSize:   2048,
		Replication: 3,
		Seed:        seed,
		Shards:      shards,
	})
}

// eachShardCount runs the test body against a one-shard and a
// four-shard plane: whatever a plane promises, it promises at any shard
// count.
func eachShardCount(t *testing.T, body func(t *testing.T, nShards int)) {
	for _, nShards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) { body(t, nShards) })
	}
}

// TestShardRoutingExactlyOne is the partition property: every file
// lands on exactly one shard — the shard ShardOf names — no shard ever
// sees a file it doesn't own, and the per-shard file counts sum to the
// merged total. It also pins the directory-routing rule (files sharing
// a parent directory share a shard) and the strided id rule (every
// stripe minted by shard i routes back to shard i arithmetically).
func TestShardRoutingExactlyOne(t *testing.T) { eachShardCount(t, testShardRoutingExactlyOne) }

func testShardRoutingExactlyOne(t *testing.T, nShards int) {
	s := newPlaneForTest(t, nShards, 21)

	var names []string
	for d := 0; d < 24; d++ {
		for f := 0; f < 4; f++ {
			names = append(names, fmt.Sprintf("d-%02d/part-%03d", d, f))
		}
	}
	for i := 0; i < 8; i++ {
		names = append(names, fmt.Sprintf("top-%d", i))
	}
	for _, name := range names {
		if err := s.WriteFile(name, bytes.Repeat([]byte{0xA5}, 3*2048)); err != nil {
			t.Fatal(err)
		}
	}

	used := make(map[int]bool)
	for _, name := range names {
		want := s.ShardOf(name)
		if want < 0 || want >= nShards {
			t.Fatalf("ShardOf(%q) = %d, outside [0,%d)", name, want, nShards)
		}
		used[want] = true
		owners := 0
		for i := 0; i < nShards; i++ {
			if _, err := s.Shard(i).Stat(name); err == nil {
				owners++
				if i != want {
					t.Fatalf("%q found on shard %d, but ShardOf routes to %d", name, i, want)
				}
			}
		}
		if owners != 1 {
			t.Fatalf("%q owned by %d shards, want exactly 1", name, owners)
		}
	}
	if nShards > 1 && len(used) < 2 {
		t.Fatalf("all %d files routed to a single shard; want spread over >= 2", len(names))
	}

	// Directory routing: siblings share a shard.
	for d := 0; d < 24; d++ {
		first := s.ShardOf(fmt.Sprintf("d-%02d/part-%03d", d, 0))
		for f := 1; f < 4; f++ {
			name := fmt.Sprintf("d-%02d/part-%03d", d, f)
			if got := s.ShardOf(name); got != first {
				t.Fatalf("%q on shard %d, sibling on %d: directory not shard-local", name, got, first)
			}
		}
	}

	// Per-shard inventories partition the merged inventory.
	var sum int
	for i := 0; i < nShards; i++ {
		sum += s.Shard(i).Stats().Files
	}
	if total := s.Stats().Files; sum != total || total != len(names) {
		t.Fatalf("per-shard files sum %d, merged %d, written %d", sum, total, len(names))
	}

	// Strided ids: every stripe a shard mints routes back to it.
	for _, name := range names {
		if s.ShardOf(name)%2 == 0 { // raid half the corpus, both parities of shard index
			if err := s.RaidFile(name); err != nil {
				t.Fatal(err)
			}
			id, _, err := s.StripeOf(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := s.ShardOfStripe(id), s.ShardOf(name); got != want {
				t.Fatalf("stripe %d of %q routes to shard %d, minted by %d", id, name, got, want)
			}
		}
	}
}

// TestShardRoutingStableAcrossRestart is the consistent-hash property:
// routing is a pure function of (name, seed, shard count), so a fresh
// plane with the same configuration assigns every name to the same
// shard — and a different seed produces a genuinely different
// assignment (the seed is really mixed in).
func TestShardRoutingStableAcrossRestart(t *testing.T) {
	var corpus []string
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 64; i++ {
		corpus = append(corpus, fmt.Sprintf("top-%04d", rng.Intn(10000)))
		corpus = append(corpus, fmt.Sprintf("data-%03d/part-%05d", rng.Intn(500), i))
		corpus = append(corpus, fmt.Sprintf("a/b/c-%d/leaf-%d", rng.Intn(40), i))
	}

	a := newPlaneForTest(t, 4, 77)
	b := newPlaneForTest(t, 4, 77)
	for _, name := range corpus {
		if ga, gb := a.ShardOf(name), b.ShardOf(name); ga != gb {
			t.Fatalf("ShardOf(%q): %d on first boot, %d on restart", name, ga, gb)
		}
	}

	other := newPlaneForTest(t, 4, 78)
	moved := 0
	for _, name := range corpus {
		if a.ShardOf(name) != other.ShardOf(name) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("changing the seed moved no file: seed is not mixed into routing")
	}
}

// TestShardMachineDeathVisibleToAllShards is the fan-out property: a
// machine death is a physical event, so every shard holding metadata
// for blocks on the dead machine must observe it — liveness flips in
// each shard's view, each affected shard's health degrades under its
// own lock, and one merged fixer pass heals them all.
func TestShardMachineDeathVisibleToAllShards(t *testing.T) {
	eachShardCount(t, testShardMachineDeathVisibleToAllShards)
}

func testShardMachineDeathVisibleToAllShards(t *testing.T, nShards int) {
	s := newPlaneForTest(t, nShards, 33)

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

	// Pick a machine every shard holds blocks on (with 96 files over 16
	// machines one must exist; fail loudly if not).
	victim := -1
	for m := 0; m < s.Machines() && victim < 0; m++ {
		all := true
		for i := 0; i < nShards; i++ {
			part := s.Shard(i).MachineInventory(m)
			if len(part.Stripes) == 0 && len(part.Replicated) == 0 {
				all = false
				break
			}
		}
		if all {
			victim = m
		}
	}
	if victim < 0 {
		t.Fatal("no machine holds blocks from every shard; grow the corpus")
	}

	for i := 0; i < nShards; i++ {
		if h := s.Shard(i).Health(); h.MissingStriped+h.UnderReplicated+h.LostReplicated != 0 {
			t.Fatalf("shard %d unhealthy before the death: %+v", i, h)
		}
	}

	s.FailMachine(victim)

	for i := 0; i < nShards; i++ {
		sh := s.Shard(i)
		if sh.MachineAlive(victim) {
			t.Fatalf("shard %d still sees machine %d alive", i, victim)
		}
		h := sh.Health()
		if h.MissingStriped+h.UnderReplicated+h.LostReplicated == 0 {
			t.Fatalf("shard %d holds blocks on machine %d but reports healthy after its death", i, victim)
		}
	}

	// The merged summary is the sum of the shards' views.
	var sum HealthSummary
	for i := 0; i < nShards; i++ {
		h := s.Shard(i).Health()
		sum.MissingStriped += h.MissingStriped
		sum.UnderReplicated += h.UnderReplicated
		sum.LostReplicated += h.LostReplicated
	}
	if merged := s.Health(); merged.MissingStriped != sum.MissingStriped ||
		merged.UnderReplicated != sum.UnderReplicated ||
		merged.LostReplicated != sum.LostReplicated {
		t.Fatalf("merged health %+v does not sum the shards' views %+v", merged, sum)
	}

	// One merged fixer pass heals every shard, with the machine still
	// down.
	rep, err := s.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairedStriped+rep.ReReplicated == 0 {
		t.Fatal("merged fixer pass repaired nothing")
	}
	if len(rep.Unrecoverable) != 0 {
		t.Fatalf("fixer reports unrecoverable blocks: %v", rep.Unrecoverable)
	}
	for i := 0; i < nShards; i++ {
		if h := s.Shard(i).Health(); h.MissingStriped+h.UnderReplicated+h.LostReplicated != 0 {
			t.Fatalf("shard %d still degraded after the merged fixer pass: %+v", i, h)
		}
	}
	s.RestoreMachine(victim)
}

// shardedOpsRound builds a metadata plane of the given shard count,
// preloads 64 dataset directories of 64 tiny files, and drives the
// directory-burst workload against it for one window: 64 workers, each
// repeatedly picking a Zipf-popular directory and firing a burst of 512
// metadata ops at it (30% part-file writes, the rest Stat with every
// eighth a FileBlocks lookup: the storm a map-reduce job fires at its
// input). Directories are shard-local, so a burst holds one shard's
// lock and bursts against unrelated datasets never contend. The round
// is time-boxed, not op-counted, so every worker contends until the
// window closes and no quiet tail of stragglers flatters the single
// lock. It returns the window's ops/sec and lock wait per op.
func shardedOpsRound(b *testing.B, shards int, window time.Duration) (opsPerSec, lockWaitNanosPerOp float64) {
	const (
		dirs, filesPerDir = 64, 64
		workers           = 64
		burstOps          = 512
		writeFraction     = 0.3
		seed              = 7
	)
	code, err := core.New(4, 2) // never raided: the codec only sizes the config
	if err != nil {
		b.Fatal(err)
	}
	md, err := New(Config{
		Topology:    cluster.Topology{Racks: 8, MachinesPerRack: 2},
		Code:        code,
		BlockSize:   4 << 10,
		Replication: 3,
		Seed:        seed,
		Shards:      shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer md.Close()
	payload := randBytes(seed, 512)
	var names [dirs][filesPerDir]string
	for d := range names {
		for f := range names[d] {
			names[d][f] = fmt.Sprintf("data-%04d/f-%05d", d, f)
			if err := md.WriteFile(names[d][f], payload); err != nil {
				b.Fatal(err)
			}
		}
	}

	var ops, opErrs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			zipf := rand.NewZipf(rng, 1.01, 1, dirs-1)
			done, seq := int64(0), 0
			defer func() { ops.Add(done) }()
			for time.Now().Before(deadline) {
				dir := zipf.Uint64()
				for i := 0; i < burstOps; i++ {
					// The clock is read once per 64 ops: the ops are
					// sub-microsecond map lookups and time.Now costs
					// as much.
					if i%64 == 63 && !time.Now().Before(deadline) {
						return
					}
					var err error
					switch {
					case rng.Float64() < writeFraction:
						err = md.WriteFile(fmt.Sprintf("data-%04d/part-%d-%d", dir, w, seq), payload)
						seq++
					case i%8 == 0:
						_, _, err = md.FileBlocks(names[dir][rng.Intn(filesPerDir)])
					default:
						_, err = md.Stat(names[dir][rng.Intn(filesPerDir)])
					}
					if err != nil {
						opErrs.Add(1)
						continue
					}
					done++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if n := opErrs.Load(); n > 0 {
		b.Fatalf("%d metadata ops failed at %d shards", n, shards)
	}
	n := float64(ops.Load())
	return n / elapsed.Seconds(), float64(md.LockStats().WaitNanos) / n
}

// BenchmarkShardedMetadataOps measures metadata throughput and
// metadata-lock wait at 1 and 4 shards — in-process, because the
// quantity under test is lock contention inside the metadata plane and
// a socket round-trip per op would bury it.
//
// Why sharding can win even on one core: the benchmark runs one
// always-runnable CPU-bound goroutine beside the workload, standing in
// for the rest of a namenode process (RPC serving, heartbeats, GC).
// Whenever the scheduler preempts a goroutine that holds a metadata
// lock, every worker that needs that lock parks behind it; with one
// lock that is all of them — a lock convoy — while with N shards only
// the workers bursting against the stalled shard park. That needs a
// second scheduler thread for the interference to run on, so GOMAXPROCS
// is raised to 2 if it is lower.
//
// One iteration is an unmeasured warm-up round (a process's first round
// runs ~15% slow while the heap grows to working size, and it would
// always be a 1-shard round) and then five interleaved 2 s rounds per
// shard count — interleaved so drift hits both counts alike, with a GC
// between rounds so one round's garbage is not billed to the next. Each
// count reports its median round.
//
// The gate: any failed op is fatal, and so is a 4-shard median below
// the 1-shard median by more than the 1-shard rounds' own spread
// (fastest minus slowest) in this run — sharding must never cost
// throughput. The allowance is measured, not a constant, because
// identical rounds differ by 4-15% on a shared 2-CPU host while the two
// counts' medians sit within 3% of each other there; it closes towards
// a strict inequality as the host gets quieter.
func BenchmarkShardedMetadataOps(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	var stop atomic.Bool
	spun := make(chan struct{})
	go func() {
		defer close(spun)
		for x := uint64(1); !stop.Load(); {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}()
	defer func() { stop.Store(true); <-spun }()

	const (
		reps   = 5
		window = 2 * time.Second
	)
	type round struct{ ops, wait float64 }
	shardCounts := [2]int{1, 4}
	var rounds [2][]round
	shardedOpsRound(b, 1, window)
	for i := 0; i < b.N; i++ {
		for rep := 0; rep < reps; rep++ {
			for j, shards := range shardCounts {
				runtime.GC()
				ops, wait := shardedOpsRound(b, shards, window)
				rounds[j] = append(rounds[j], round{ops, wait})
			}
		}
	}
	var median [2]round
	for j, shards := range shardCounts {
		sort.Slice(rounds[j], func(x, y int) bool { return rounds[j][x].ops < rounds[j][y].ops })
		median[j] = rounds[j][len(rounds[j])/2]
		b.ReportMetric(median[j].ops, fmt.Sprintf("ops/s-%dshard", shards))
		b.ReportMetric(median[j].wait, fmt.Sprintf("lockwait-ns/op-%dshard", shards))
	}
	spread := rounds[0][len(rounds[0])-1].ops - rounds[0][0].ops
	b.ReportMetric(spread, "spread-ops/s-1shard")
	if median[1].ops < median[0].ops-spread {
		b.Fatalf("sharding cost metadata throughput: median %.0f ops/s at 4 shards is below %.0f at 1 by more than the 1-shard rounds' spread (%.0f)",
			median[1].ops, median[0].ops, spread)
	}
}
