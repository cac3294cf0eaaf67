package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/hdfs"
)

// Buffer-lifetime tests: the datanode reads every dn.read answer into a
// buffer it lends out again after the response is flushed, and the
// client lands a degraded read's helper ranges in a recycled arena. A
// buffer recycled too early shows up as another request's bytes.

// startExtentSystem starts a Piggybacked-RS(4,2) system on extent
// stores with the given block size (several checksum chunks, so range
// reads are real range reads).
func startExtentSystem(t testing.TB, blockSize int64) (*System, ec.Code) {
	t.Helper()
	code, err := core.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(code)
	cfg.BlockSize = blockSize
	cfg, _ = onDisk(t, cfg)
	return startSystem(t, cfg), code
}

// writeFiles stores n files of the given size and returns their
// contents by name.
func writeFiles(t testing.TB, sys *System, code ec.Code, n, size int, raid bool) map[string][]byte {
	t.Helper()
	cl, err := Dial(sys.NameAddr(), code)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(int64(n*size) + 1))
	files := make(map[string][]byte)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("f%d", i)
		files[name] = make([]byte, size)
		rng.Read(files[name])
		if err := cl.WriteFile(name, files[name]); err != nil {
			t.Fatal(err)
		}
		if raid {
			if err := cl.RaidFile(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	return files
}

// TestInterleavedReadsNeverSeeARecycledBuffer: many clients, each on
// its own connections, issue dn.reads of different blocks, offsets and
// lengths — aligned, unaligned, running past the block's end — and
// byte-compare every reply. Run under -race.
func TestInterleavedReadsNeverSeeARecycledBuffer(t *testing.T) {
	const blockSize = 16 << 10
	sys, code := startExtentSystem(t, blockSize)
	files := writeFiles(t, sys, code, 6, 3*blockSize-777, false)

	type replica struct {
		machine int
		id      int64
		content []byte
	}
	var replicas []replica
	for name, data := range files {
		_, blocks, err := sys.Cluster().FileBlocks(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range blocks {
			content := data[i*blockSize : min((i+1)*blockSize, len(data))]
			for _, m := range b.Locations {
				replicas = append(replicas, replica{m, int64(b.ID), content})
			}
		}
	}

	const clients, readsEach = 8, 150
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(sys.NameAddr(), code)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			lent := make([]byte, blockSize)
			for i := 0; i < readsEach; i++ {
				r := replicas[rng.Intn(len(replicas))]
				off := rng.Int63n(blockSize)
				length := rng.Int63n(blockSize - off + 1)
				if i%4 == 0 {
					off, length = off/4096*4096, min(length/4096*4096+4096, blockSize-off/4096*4096)
				}
				want := make([]byte, length) // zero padded past the replica's end
				if off < int64(len(r.content)) {
					copy(want, r.content[off:])
				}
				var dst []byte
				if i%2 == 0 {
					dst = lent
				}
				got, err := cl.dnRead(r.machine, r.id, off, length, nil, dst)
				if err != nil {
					errs <- fmt.Errorf("client %d: read [%d,+%d) of block %d on %d: %w", w, off, length, r.id, r.machine, err)
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("client %d: read [%d,+%d) of block %d on %d returned another request's bytes", w, off, length, r.id, r.machine)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReadBeyondShardBoundRefused: the lent buffer holds one padded
// block, and no legitimate read is longer.
func TestReadBeyondShardBoundRefused(t *testing.T) {
	sys, code := startExtentSystem(t, 8<<10)
	writeFiles(t, sys, code, 1, 8<<10, false)
	cl, err := Dial(sys.NameAddr(), code)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, blocks, err := sys.Cluster().FileBlocks("f0")
	if err != nil {
		t.Fatal(err)
	}
	b := blocks[0]
	if _, err := cl.dnRead(b.Locations[0], int64(b.ID), 0, 8<<10, nil, nil); err != nil {
		t.Fatalf("block-sized read refused: %v", err)
	}
	if _, err := cl.dnRead(b.Locations[0], int64(b.ID), 0, 8<<10+1, nil, nil); err == nil {
		t.Fatal("a read longer than a padded block was served")
	}
}

// TestDegradedReadSurvivesHelperDyingMidFetch: a degraded read is
// parked on a helper when that helper's daemon dies. The file's other
// blocks are lent, so the helpers it fetches from are parity holders.
// The repair fails, gives its arena back, and the retry plans around
// the dead helper; the reads that follow reuse the arena and must stay
// byte-identical.
func TestDegradedReadSurvivesHelperDyingMidFetch(t *testing.T) {
	const blockSize = 16 << 10
	sys, code := startExtentSystem(t, blockSize)
	data := writeFiles(t, sys, code, 1, 4*blockSize, true)["f0"]
	_, blocks, err := sys.Cluster().FileBlocks("f0")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.KillDataNode(blocks[0].Locations[0]); err != nil {
		t.Fatal(err)
	}
	// The first parity the plan reads (k=4: one stripe, every other data
	// block in hand).
	plan, err := code.PlanRepair(0, blockSize, ec.AllAliveExcept(0))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.Cluster().Stripe(blocks[0].Stripe)
	if err != nil {
		t.Fatal(err)
	}
	helper := -1
	for _, r := range plan.Reads {
		if r.Shard >= code.DataShards() {
			helper = st.Positions[r.Shard].Locations[0]
			break
		}
	}
	if helper < 0 {
		t.Fatalf("the plan %+v reads no parity", plan.Reads)
	}
	cl, err := Dial(sys.NameAddr(), code)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got, err := cl.ReadFile("f0"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded read before the helper dies: %v", err)
	}

	// Park the next fetch from the helper in its throttle, then kill it.
	// The read cannot finish while the throttle holds; the short wait
	// only makes it near certain the fetch is already on the wire when
	// the kill lands — a kill that wins the race instead finds the helper
	// dead at dial time, and the same fallback must serve the read.
	// (KillDataNode waits out the parked handler, hence a short throttle.)
	const throttle = 2 * time.Second
	if err := sys.ThrottleDataNode(helper, throttle); err != nil {
		t.Fatal(err)
	}
	type result struct {
		data []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		got, err := cl.ReadFile("f0")
		done <- result{got, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("read returned (%v) while its helper was throttled for %v", r.err, throttle)
	case <-time.After(throttle / 10):
	}
	if err := sys.KillDataNode(helper); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil || !bytes.Equal(r.data, data) {
			t.Fatalf("read whose helper died mid-fetch: %v", r.err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("read did not fall back after its helper died")
	}
	for i := 0; i < 20; i++ {
		if got, err := cl.ReadFile("f0"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("degraded read %d after the fallback: %v", i, err)
		}
	}
	if c := cl.Counters(); c.DegradedBlocks < 22 {
		t.Fatalf("expected every read to be degraded, counters %+v", c)
	}
}

// TestPartialFoldOwnsItsMemory: dn.partial's term reads pass through
// the lent buffer, but the folded sum it returns does not alias it —
// folding something else through the same buffer leaves an earlier sum
// untouched.
func TestPartialFoldOwnsItsMemory(t *testing.T) {
	const blockSize = 8 << 10
	sys, code := startExtentSystem(t, blockSize)
	writeFiles(t, sys, code, 4, blockSize, false)
	var d *DataNode
	var ids []hdfs.BlockID
	for m := 0; m < sys.Cluster().Machines() && len(ids) < 2; m++ {
		if ids = sys.Cluster().BlocksOn(m); len(ids) >= 2 {
			sys.mu.Lock()
			d = sys.dns[m]
			sys.mu.Unlock()
		}
	}
	if d == nil {
		t.Fatal("no machine holds two blocks")
	}
	var lend []byte
	fold := func(id hdfs.BlockID) []byte {
		t.Helper()
		req := &request{Method: methodDNPartial, Length: blockSize, Partial: &wirePartialNode{
			Machine: d.machine,
			Terms:   []wirePartialTerm{{Block: int64(id), Length: blockSize, Coeff: 1}},
		}}
		sum, err := d.partial(req, &lend)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	want, err := sys.Cluster().NodeReadRangeInto(d.machine, ids[0], 0, blockSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := fold(ids[0])
	if !bytes.Equal(first, want) {
		t.Fatal("fold with coefficient 1 is not the block")
	}
	if second := fold(ids[1]); bytes.Equal(second, first) {
		t.Fatal("two different blocks folded to the same bytes")
	}
	if !bytes.Equal(first, want) {
		t.Fatal("a later fold through the same lent buffer changed an earlier result")
	}
}

// TestServingAReadAllocatesUnderAQuarterBlock: one dn.read of a 256 KiB
// block, client and datanode together, allocates less than a quarter of
// the block — the datanode reads into a recycled buffer and the client
// into the one it lends. Before, each side allocated (and zeroed) a
// whole block per read.
func TestServingAReadAllocatesUnderAQuarterBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector: every fourth read would allocate its block")
	}
	const blockSize = 256 << 10
	sys, code := startExtentSystem(t, blockSize)
	data := writeFiles(t, sys, code, 1, blockSize, false)["f0"]
	cl, err := Dial(sys.NameAddr(), code)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, blocks, err := sys.Cluster().FileBlocks("f0")
	if err != nil {
		t.Fatal(err)
	}
	b := blocks[0]
	dst := make([]byte, blockSize)
	res := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			got, err := cl.dnRead(b.Locations[0], int64(b.ID), 0, blockSize, nil, dst)
			if err != nil || !bytes.Equal(got, data) {
				tb.Fatalf("read: %v", err)
			}
		}
	})
	if res.N == 0 {
		t.Fatal("benchmark did not run")
	}
	t.Logf("%d B/op, %d allocs/op over %d reads", res.AllocedBytesPerOp(), res.AllocsPerOp(), res.N)
	if got := res.AllocedBytesPerOp(); got > blockSize/4 {
		t.Fatalf("serving one %d-byte dn.read allocates %d bytes, want at most %d", blockSize, got, blockSize/4)
	}
}

// healthyFile stores one raided file of 10 x 256 KiB (the benchmark's
// healthy_read shape) as "f0" on a live extent-backed system and returns
// a client to read it with and its contents.
func healthyFile(t testing.TB) (*Client, []byte) {
	t.Helper()
	const blockSize = 256 << 10
	sys, code := startExtentSystem(t, blockSize)
	data := writeFiles(t, sys, code, 1, 10*blockSize, true)["f0"]
	cl, err := Dial(sys.NameAddr(), code)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, data
}

// readFileLoop is the body both BenchmarkReadFileHealthy and the
// allocation gate below time: whole-file reads, byte-compared.
func readFileLoop(b *testing.B, cl *Client, data []byte) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := cl.ReadFile("f0")
		if err != nil || !bytes.Equal(got, data) {
			b.Fatalf("healthy read: %v", err)
		}
	}
}

// BenchmarkReadFileHealthy reads a healthy 10 x 256 KiB file end to end:
// namenode, ten datanode reads, extent store, CRC. B/op is the whole
// process's — client and daemons — per file read.
func BenchmarkReadFileHealthy(b *testing.B) {
	cl, data := healthyFile(b)
	readFileLoop(b, cl, data)
}

// TestHealthyReadFileAllocatesTheResultOnce: a healthy whole-file read
// allocates its result and little else — at most 1.1x the file's size,
// client and daemons together. Every block is read straight into its
// slot of the result; a per-block buffer assembled into the result
// afterwards cost 2x.
func TestHealthyReadFileAllocatesTheResultOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector: the datanodes would allocate blocks of their own")
	}
	cl, data := healthyFile(t)
	res := testing.Benchmark(func(b *testing.B) { readFileLoop(b, cl, data) })
	if res.N == 0 {
		t.Fatal("benchmark did not run")
	}
	t.Logf("%d B/op, %d allocs/op over %d reads of %d bytes", res.AllocedBytesPerOp(), res.AllocsPerOp(), res.N, len(data))
	if got, limit := res.AllocedBytesPerOp(), int64(len(data))*11/10; got > limit {
		t.Fatalf("a healthy read of a %d-byte file allocates %d bytes, want at most %d", len(data), got, limit)
	}
}

// oneBlockFile stores one raided file of a single 4 KiB block (the
// benchmark's small_read shape) as "f0" on a live extent-backed system.
func oneBlockFile(t testing.TB) (*Client, []byte) {
	t.Helper()
	const blockSize = 4 << 10
	sys, code := startExtentSystem(t, blockSize)
	data := writeFiles(t, sys, code, 1, blockSize, true)["f0"]
	cl, err := Dial(sys.NameAddr(), code)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, data
}

// BenchmarkReadFileOneBlock reads a one-block file end to end — a blocks
// RPC and a dn.read — where the per-message cost is all there is.
// allocs/op is the whole process's: client, namenode and datanode.
func BenchmarkReadFileOneBlock(b *testing.B) {
	cl, data := oneBlockFile(b)
	readFileLoop(b, cl, data)
}

// TestOneBlockReadAllocatesAtMostTwentyTimes: a one-block raided ReadFile
// — two RPCs, four frames — allocates at most 20 objects, client and
// both daemons together. With reflected JSON headers and a prefix array
// per frame it was 53; binary headers built and parsed in pooled buffers
// leave 14 (the result, the block table on either side, the header
// structs, the file's name, hdfs's own lookups).
func TestOneBlockReadAllocatesAtMostTwentyTimes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector: pooled frame buffers would be reallocated")
	}
	cl, data := oneBlockFile(t)
	res := testing.Benchmark(func(b *testing.B) { readFileLoop(b, cl, data) })
	if res.N == 0 {
		t.Fatal("benchmark did not run")
	}
	t.Logf("%d B/op, %d allocs/op over %d reads", res.AllocedBytesPerOp(), res.AllocsPerOp(), res.N)
	if got := res.AllocsPerOp(); got > 20 {
		t.Fatalf("a one-block read allocates %d objects, want at most 20", got)
	}
}
