package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extent"
)

// putGate parks the first Put made after each arm, on whichever
// machine, until the test opens it; parked receives that machine.
type putGate struct {
	armed  atomic.Bool
	parked chan int
	open   chan struct{}
	once   *sync.Once
}

// gatedCluster builds a cluster on storeConfig whose extent stores
// park on a new disarmed gate. The gate opens before the cluster
// closes, so no Put is left parked behind a Close.
func gatedCluster(t *testing.T) (*Cluster, *putGate) {
	g := &putGate{parked: make(chan int, 1), open: make(chan struct{}), once: new(sync.Once)}
	c := newForTest(t, storeConfig(t, g.wrap(extentStores(t))))
	t.Cleanup(g.release)
	return c, g
}

// arm parks the next Put. A Put parked by the last arm must have been
// released.
func (g *putGate) arm() {
	g.open, g.once = make(chan struct{}), new(sync.Once)
	g.armed.Store(true)
}

func (g *putGate) release() { g.once.Do(func() { close(g.open) }) }

// waitParked returns the machine whose Put is parked.
func (g *putGate) waitParked(t *testing.T) int {
	t.Helper()
	select {
	case m := <-g.parked:
		return m
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a Put to park")
		return -1
	}
}

// wrap makes a StoreFactory whose stores park on the gate.
func (g *putGate) wrap(inner func(int) (BlockStore, error)) func(int) (BlockStore, error) {
	return func(machine int) (BlockStore, error) {
		st, err := inner(machine)
		if err != nil {
			return nil, err
		}
		return &gatedPutStore{BlockStore: st, gate: g, machine: machine}, nil
	}
}

type gatedPutStore struct {
	BlockStore
	gate    *putGate
	machine int
}

func (s *gatedPutStore) Put(id BlockID, data []byte) error {
	if s.gate.armed.CompareAndSwap(true, false) {
		s.gate.parked <- s.machine
		<-s.gate.open
	}
	return s.BlockStore.Put(id, data)
}

// extentStores is a StoreFactory of extent stores in a directory of the
// test's own.
func extentStores(t *testing.T) func(int) (BlockStore, error) {
	return ExtentStoreFactory(t.TempDir(), extent.Options{})
}

// faultyStores is a StoreFactory of extent stores whose Puts all
// consult fail: a Put it refuses stores nothing.
func faultyStores(t *testing.T, fail func(id BlockID) bool) func(int) (BlockStore, error) {
	stores := extentStores(t)
	return func(machine int) (BlockStore, error) {
		st, err := stores(machine)
		if err != nil {
			return nil, err
		}
		return &faultyStore{BlockStore: st, fail: fail}, nil
	}
}

var errInjected = errors.New("injected store failure")

type faultyStore struct {
	BlockStore
	fail func(id BlockID) bool
}

func (s *faultyStore) Put(id BlockID, data []byte) error {
	if s.fail(id) {
		return errInjected
	}
	return s.BlockStore.Put(id, data)
}

// TestBlockChecksumsAreThePayloadCRCs: the CRC-32 the metadata records
// for a block — the first replica's store's, folded from the chunk
// table it filled, or computed by the write path when a decorator
// hides that — is hash/crc32's of the block's bytes, for written data
// blocks (a 700-byte tail among them) and for raided parity alike.
func TestBlockChecksumsAreThePayloadCRCs(t *testing.T) {
	for name, stores := range map[string]func(*testing.T) func(int) (BlockStore, error){
		"extent": extentStores,
		"decorated": func(t *testing.T) func(int) (BlockStore, error) {
			return faultyStores(t, func(BlockID) bool { return false })
		},
	} {
		t.Run(name, func(t *testing.T) {
			c := newForTest(t, storeConfig(t, stores(t)))
			for i, f := range []string{"a", "b"} {
				if err := c.WriteFile(f, randBytes(int64(70+i), 4700)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.RaidFile("a"); err != nil {
				t.Fatal(err)
			}
			if len(c.stripes) == 0 {
				t.Fatal("raiding made no stripe")
			}
			for id, bm := range c.blocks {
				buf, err := c.nodes[bm.locations[0]].readRange(id, 0, bm.size)
				if err != nil {
					t.Fatal(err)
				}
				if want := crc32.ChecksumIEEE(buf); bm.checksum != want {
					t.Errorf("block %d (stripe %d): recorded CRC %08x, payload's %08x", id, bm.stripe, bm.checksum, want)
				}
			}
		})
	}
}

// storeConfig is testCluster's shape (20 racks of 3, 1 KiB blocks,
// Piggybacked-RS(4,2), seed 7) with the given stores.
func storeConfig(t *testing.T, stores func(int) (BlockStore, error)) Config {
	return Config{
		Topology:     cluster.Topology{Racks: 20, MachinesPerRack: 3},
		Code:         pbCode(t),
		BlockSize:    1024,
		Replication:  3,
		Seed:         7,
		StoreFactory: stores,
	}
}

// within fails the test unless fn returns inside the timeout; what
// names what was waited for.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out: %s", what)
	}
}

// async runs fn in its own goroutine and delivers its error.
func async(fn func() error) <-chan error {
	out := make(chan error, 1)
	go func() { out <- fn() }()
	return out
}

// readsOf checks that file name's metadata and bytes are served.
func readsOf(c *Cluster, name string, want []byte) func() error {
	return func() error {
		if _, _, err := c.FileBlocks(name); err != nil {
			return err
		}
		got, err := c.ReadFile(name)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s: content mismatch", name)
		}
		return nil
	}
}

// TestReadsProceedWhileAWriteIsOnDisk: a WriteFile stores its replicas
// with the metadata lock released. While one of its Puts is parked, a
// file already written is looked up and read, and the file being
// written does not exist yet.
func TestReadsProceedWhileAWriteIsOnDisk(t *testing.T) {
	c, gate := gatedCluster(t)
	a, b := randBytes(1, 3*1024), randBytes(2, 3*1024)
	if err := c.WriteFile("A", a); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("A"); err != nil {
		t.Fatal(err)
	}

	gate.arm()
	wrote := async(func() error { return c.WriteFile("B", b) })
	gate.waitParked(t)
	within(t, "FileBlocks and ReadFile of A while B's write is on disk", readsOf(c, "A", a))
	within(t, "Stat of B while its write is on disk", func() error {
		if _, err := c.Stat("B"); !errors.Is(err, ErrFileNotFound) {
			return fmt.Errorf("Stat of a file whose write is in flight: %v, want ErrFileNotFound", err)
		}
		return nil
	})
	gate.release()
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if err := readsOf(c, "B", b)(); err != nil {
		t.Fatal(err)
	}
}

// TestReadsProceedWhileARaidIsOnDisk is the raid twin: while one of a
// RaidFile's Puts is parked, other files are read, and the file being
// raided is still the replicated file it was.
func TestReadsProceedWhileARaidIsOnDisk(t *testing.T) {
	c, gate := gatedCluster(t)
	a, b := randBytes(1, 3*1024), randBytes(2, 3*1024)
	if err := c.WriteFile("A", a); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile("B", b); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("A"); err != nil {
		t.Fatal(err)
	}

	gate.arm()
	raided := async(func() error { return c.RaidFile("B") })
	gate.waitParked(t)
	within(t, "FileBlocks and ReadFile of A while B's raid is on disk", readsOf(c, "A", a))
	within(t, "B's metadata while its raid is on disk", func() error {
		if st, err := c.Stat("B"); err != nil || st.Raided {
			return fmt.Errorf("Stat of a file whose raid is in flight: %+v, %v, want not raided", st, err)
		}
		_, blocks, err := c.FileBlocks("B")
		if err != nil {
			return err
		}
		for i, bl := range blocks {
			if bl.Stripe != noStripe || len(bl.Locations) != 3 {
				return fmt.Errorf("block %d of a file whose raid is in flight: stripe %d, %d replicas; want none and 3", i, bl.Stripe, len(bl.Locations))
			}
		}
		return readsOf(c, "B", b)()
	})
	gate.release()
	if err := <-raided; err != nil {
		t.Fatal(err)
	}
	if st, err := c.Stat("B"); err != nil || !st.Raided {
		t.Fatalf("after the raid: %+v, %v", st, err)
	}
	if err := readsOf(c, "B", b)(); err != nil {
		t.Fatal(err)
	}
}

// assertStoresRecorded fails unless every replica any store holds is
// one the metadata records there: nothing a failed operation stored is
// left behind.
func assertStoresRecorded(t *testing.T, c *Cluster) {
	t.Helper()
	for m := 0; m < c.Machines(); m++ {
		for _, id := range c.BlocksOn(m) {
			if info, ok := c.BlockInfoByID(id); !ok || !slices.Contains(info.Locations, m) {
				t.Fatalf("machine %d holds block %d, which the metadata does not record there", m, id)
			}
		}
	}
}

// TestFailedWriteLeavesNoReplicas fails each Put of a four-block write
// in turn. Whichever fails — the first replica of a block or a later
// one — the write returns the error, the file does not exist, and no
// store holds any of its blocks. A retry then writes it.
func TestFailedWriteLeavesNoReplicas(t *testing.T) {
	data := randBytes(3, 4*1024)
	const puts = 4 * 3
	for n := int64(1); n <= puts; n++ {
		var count atomic.Int64
		c := newForTest(t, storeConfig(t, faultyStores(t, func(BlockID) bool { return count.Add(1) == n })))
		if err := c.WriteFile("f", data); !errors.Is(err, errInjected) {
			t.Fatalf("put %d failing: WriteFile returned %v, want the injected error", n, err)
		}
		if _, err := c.Stat("f"); !errors.Is(err, ErrFileNotFound) {
			t.Fatalf("put %d failing: Stat after the failed write: %v, want ErrFileNotFound", n, err)
		}
		for m := 0; m < c.Machines(); m++ {
			if ids := c.BlocksOn(m); len(ids) != 0 {
				t.Fatalf("put %d failing: machine %d still holds blocks %v of the failed write", n, m, ids)
			}
		}
		if err := c.WriteFile("f", data); err != nil {
			t.Fatalf("put %d failing: retry: %v", n, err)
		}
		if err := readsOf(c, "f", data)(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedRaidLeavesTheFileReplicated fails the first parity Put of a
// raid, after any data block that moves has moved. The
// file must be exactly as it was: three replicas a block, no stripe,
// nothing the raid stored left on any store. A retry raids it, and a
// read that loses the only holder of a block then decodes it.
func TestFailedRaidLeavesTheFileReplicated(t *testing.T) {
	// The write mints ids 0-3; the raid's parity ids are 4 and 5.
	const firstParity = BlockID(4)
	var failed atomic.Bool
	c := newForTest(t, storeConfig(t, faultyStores(t, func(id BlockID) bool {
		return id == firstParity && failed.CompareAndSwap(false, true)
	})))
	data := randBytes(4, 4*1024)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("f"); !errors.Is(err, errInjected) {
		t.Fatalf("RaidFile with its first parity Put failing: %v, want the injected error", err)
	}

	if st, err := c.Stat("f"); err != nil || st.Raided {
		t.Fatalf("after the failed raid: %+v, %v, want not raided", st, err)
	}
	_, blocks, err := c.FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		if b.Stripe != noStripe || len(b.Locations) != 3 {
			t.Fatalf("block %d after the failed raid: stripe %d, replicas %v; want no stripe and 3 replicas", i, b.Stripe, b.Locations)
		}
	}
	if st := c.Stats(); st.Stripes != 0 || st.ParityBlocks != 0 {
		t.Fatalf("after the failed raid: %d stripes, %d parity blocks; want none", st.Stripes, st.ParityBlocks)
	}
	assertStoresRecorded(t, c)

	if err := c.RaidFile("f"); err != nil {
		t.Fatalf("retrying the raid: %v", err)
	}
	if _, blocks, err = c.FileBlocks("f"); err != nil {
		t.Fatal(err)
	}
	assertStoresRecorded(t, c)
	c.FailMachine(blocks[0].Locations[0])
	if err := readsOf(c, "f", data)(); err != nil {
		t.Fatalf("reading after the only holder of block 0 failed: %v", err)
	}
}

// ioCounts counts the Puts and Gets of each block id made of the
// stores its factory builds, over all machines, since the last reset.
type ioCounts struct {
	mu         sync.Mutex
	puts, gets map[BlockID]int
}

func newIOCounts() *ioCounts {
	return &ioCounts{puts: map[BlockID]int{}, gets: map[BlockID]int{}}
}

func (n *ioCounts) add(into map[BlockID]int, id BlockID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	into[id]++
}

func (n *ioCounts) reset() {
	n.mu.Lock()
	defer n.mu.Unlock()
	clear(n.puts)
	clear(n.gets)
}

// factory is a StoreFactory of counted extent stores.
func (n *ioCounts) factory(t *testing.T) func(int) (BlockStore, error) {
	stores := extentStores(t)
	return func(m int) (BlockStore, error) {
		st, err := stores(m)
		if err != nil {
			return nil, err
		}
		return ioCountingStore{BlockStore: st, counts: n}, nil
	}
}

type ioCountingStore struct {
	BlockStore
	counts *ioCounts
}

func (s ioCountingStore) Put(id BlockID, data []byte) error {
	s.counts.add(s.counts.puts, id)
	return s.BlockStore.Put(id, data)
}

func (s ioCountingStore) Get(id BlockID) ([]byte, error) {
	s.counts.add(s.counts.gets, id)
	return s.BlockStore.Get(id)
}

// raidCounted raids file name on c with counts reset first, and returns
// each block's holders before the raid and after it.
func raidCounted(t *testing.T, c *Cluster, counts *ioCounts, name string) (before, after [][]int) {
	t.Helper()
	before, err := c.BlockLocations(name)
	if err != nil {
		t.Fatal(err)
	}
	counts.reset()
	if err := c.RaidFile(name); err != nil {
		t.Fatal(err)
	}
	if after, err = c.BlockLocations(name); err != nil {
		t.Fatal(err)
	}
	return before, after
}

// assertStripeOnDistinctRacks fails unless each position of the file's
// first stripe has one holder, every one on its own rack.
func assertStripeOnDistinctRacks(t *testing.T, c *Cluster, name string) {
	t.Helper()
	sid, _ := stripeOf(t, c, name, 0)
	racks := stripeRacks(t, c, sid)
	distinct := slices.Clone(racks)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	if w := c.Code().TotalShards(); len(racks) != w || len(distinct) != w {
		t.Fatalf("stripe %d holders sit on racks %v, want %d distinct", sid, racks, w)
	}
}

// TestRaidKeepsEachDataBlockOnAHolder: raiding a 10-block file into one
// Piggybacked-RS(10,4) stripe keeps every data block on one of the
// machines that held it, so the raid stores the 4 parity blocks and no
// data block, and the stripe still spans 14 racks. On this seed every
// block has a holder on a rack the blocks before it left free;
// TestRaidMovesABlockWithNoHolderOnAFreeRack covers one that has not.
func TestRaidKeepsEachDataBlockOnAHolder(t *testing.T) {
	code, err := core.New(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := newIOCounts()
	cfg := storeConfig(t, counts.factory(t))
	cfg.Code = code
	c := newForTest(t, cfg)
	data := randBytes(53, 10*1024)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	before, after := raidCounted(t, c, counts, "f")
	for i, at := range after {
		if len(at) != 1 || !slices.Contains(before[i], at[0]) {
			t.Errorf("block %d sits on %v after the raid, want one of its holders %v", i, at, before[i])
		}
	}
	_, blocks, err := c.FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if n := counts.puts[b.ID]; n != 0 {
			t.Errorf("the raid stored data block %d %d times, want 0", b.ID, n)
		}
	}
	if n := len(counts.puts); n != code.ParityShards() {
		t.Errorf("the raid stored blocks %v, want only the %d parity blocks", counts.puts, code.ParityShards())
	}
	assertStripeOnDistinctRacks(t, c, "f")
	if err := readsOf(c, "f", data)(); err != nil {
		t.Fatal(err)
	}
}

// TestRaidMovesABlockWithNoHolderOnAFreeRack: on 6 racks of one machine
// each, a 4-block file is written while machines 3-5 are down, so every
// block's three replicas sit on machines 0-2, and the machines then
// return. The raid keeps blocks 0-2 on those three racks; block 3 has
// no holder left on a free rack, so it moves to one of machines 3-5,
// copied from the shard the encoder read: the raid reads each block
// once and stores block 3 and the parity. The stripe spans all 6 racks
// and reads back, healthy and without block 3's new machine.
func TestRaidMovesABlockWithNoHolderOnAFreeRack(t *testing.T) {
	counts := newIOCounts()
	cfg := storeConfig(t, counts.factory(t))
	cfg.Topology = cluster.Topology{Racks: 6, MachinesPerRack: 1}
	c := newForTest(t, cfg)
	for m := 3; m < 6; m++ {
		c.FailMachine(m)
	}
	data := randBytes(54, 4*1024)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	for m := 3; m < 6; m++ {
		if err := c.RecoverMachine(m); err != nil {
			t.Fatal(err)
		}
	}
	before, after := raidCounted(t, c, counts, "f")
	for i, at := range before {
		if slices.Sort(at); !slices.Equal(at, []int{0, 1, 2}) {
			t.Fatalf("block %d was written to %v, want machines 0-2", i, at)
		}
	}
	for i, at := range after[:3] {
		if len(at) != 1 || at[0] > 2 {
			t.Errorf("block %d sits on %v after the raid, want one of its holders 0-2", i, at)
		}
	}
	moved := after[3]
	if len(moved) != 1 || moved[0] < 3 {
		t.Fatalf("block 3 sits on %v after the raid, want one of machines 3-5", moved)
	}

	_, blocks, err := c.FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		want := 0
		if i == 3 {
			want = 1
		}
		if n := counts.puts[b.ID]; n != want {
			t.Errorf("the raid stored block %d %d times, want %d", i, n, want)
		}
		if n := counts.gets[b.ID]; n != 1 {
			t.Errorf("the raid read block %d %d times, want once, by the encoder", i, n)
		}
	}
	if n, want := len(counts.puts), 1+c.Code().ParityShards(); n != want {
		t.Errorf("the raid stored blocks %v, want block 3 and the parity, %d in all", counts.puts, want)
	}
	assertStripeOnDistinctRacks(t, c, "f")
	if err := readsOf(c, "f", data)(); err != nil {
		t.Fatalf("healthy read: %v", err)
	}
	c.FailMachine(moved[0])
	if err := readsOf(c, "f", data)(); err != nil {
		t.Fatalf("read without block 3's machine %d: %v", moved[0], err)
	}
}

// TestRaidMovesABlockWhoseHolderDiedSinceThePlan: the raid plans to
// keep block 0 on its first holder, which dies while the encoder's read
// of it is parked. The raid stores the block elsewhere from the shard
// it read, so the block does not end on a dead machine alone.
func TestRaidMovesABlockWhoseHolderDiedSinceThePlan(t *testing.T) {
	gate := &getGate{parked: make(chan struct{}, 1), open: make(chan struct{})}
	c := newForTest(t, storeConfig(t, gate.wrap(extentStores(t))))
	t.Cleanup(gate.release)
	data := randBytes(55, 4*1024)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	before, err := c.BlockLocations("f")
	if err != nil {
		t.Fatal(err)
	}
	gate.armed.Store(true)
	raided := async(func() error { return c.RaidFile("f") })
	select {
	case <-gate.parked:
	case err := <-raided:
		t.Fatalf("the raid returned before its first read: %v", err)
	}
	dead := before[0][0]
	c.FailMachine(dead)
	gate.release()
	if err := <-raided; err != nil {
		t.Fatal(err)
	}
	after, err := c.BlockLocations("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(after[0]) != 1 || after[0][0] == dead {
		t.Fatalf("block 0 sits on live holders %v after the raid; its kept holder %d died mid-raid", after[0], dead)
	}
	if err := readsOf(c, "f", data)(); err != nil {
		t.Fatal(err)
	}
}

// TestNodeWritesRunOutsideTheNodeLock: storeBlock used to hold the
// dataNode's mutex across the store's Put, so while a machine was being
// written its liveness could not be read, nor its state changed — and a
// state change waiting for it holds the metadata lock.
// With a Put parked, both must return. A crash that closes the store
// under the parked Put makes the write re-place that replica.
func TestNodeWritesRunOutsideTheNodeLock(t *testing.T) {
	c, gate := gatedCluster(t)
	data := randBytes(5, 1024)

	gate.arm()
	wrote := async(func() error { return c.WriteFile("failed", data) })
	m := gate.waitParked(t)
	within(t, "MachineAlive and FailMachine of the machine being written", func() error {
		if !c.MachineAlive(m) {
			return fmt.Errorf("machine %d reported dead", m)
		}
		c.FailMachine(m)
		return nil
	})
	gate.release()
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	// The replica landed before the machine's death was seen: it counts
	// as lost with the machine, and the fixer restores it.
	if rep, err := c.RunBlockFixer(); err != nil || rep.ReReplicated != 1 {
		t.Fatalf("fixer after a machine died under a write: %+v, %v, want one re-replication", rep, err)
	}
	if err := c.RecoverMachine(m); err != nil {
		t.Fatal(err)
	}

	gate.arm()
	wrote = async(func() error { return c.WriteFile("crashed", data) })
	m = gate.waitParked(t)
	within(t, "CrashMachine of the machine being written", func() error { return c.CrashMachine(m) })
	gate.release()
	if err := <-wrote; err != nil {
		t.Fatalf("a write whose store crashed under it: %v, want the replica re-placed", err)
	}
	locs, err := c.BlockLocations("crashed")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs[0]) != 3 || slices.Contains(locs[0], m) {
		t.Fatalf("replicas on %v after machine %d crashed under the write; want 3, none on it", locs[0], m)
	}
	if err := readsOf(c, "crashed", data)(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentWritesOfOneName: a second WriteFile of a name in flight
// waits for the first one's outcome, then finds the file. Unscripted,
// of eight writers racing one name exactly one wins.
func TestConcurrentWritesOfOneName(t *testing.T) {
	c, gate := gatedCluster(t)
	first, second := randBytes(6, 2048), randBytes(7, 2048)

	gate.arm()
	firstDone := async(func() error { return c.WriteFile("f", first) })
	gate.waitParked(t)
	secondDone := async(func() error { return c.WriteFile("f", second) })
	select {
	case err := <-secondDone:
		t.Fatalf("a second write of a name in flight returned (%v) before the first committed", err)
	case <-time.After(50 * time.Millisecond):
	}
	gate.release()
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if err := <-secondDone; !errors.Is(err, ErrFileExists) {
		t.Fatalf("second write of one name: %v, want ErrFileExists", err)
	}
	if err := readsOf(c, "f", first)(); err != nil {
		t.Fatal(err)
	}

	const writers = 8
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.WriteFile("g", randBytes(int64(100+i), 2048))
		}(i)
	}
	wg.Wait()
	winner := -1
	for i, err := range errs {
		switch {
		case err == nil && winner < 0:
			winner = i
		case !errors.Is(err, ErrFileExists):
			t.Fatalf("writer %d: %v (winner %d)", i, err, winner)
		}
	}
	if winner < 0 {
		t.Fatal("no writer won")
	}
	if err := readsOf(c, "g", randBytes(int64(100+winner), 2048))(); err != nil {
		t.Fatal(err)
	}
	assertStoresRecorded(t, c)
}

// TestConcurrentRaidsOfOneFile: two RaidFiles of one file both return
// after a single raid — one raided it, the other finds it raided — with
// one stripe per group of k blocks.
func TestConcurrentRaidsOfOneFile(t *testing.T) {
	c, gate := gatedCluster(t)
	data := randBytes(8, 10*1024) // 10 blocks: groups of 4, 4 and 2
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}

	gate.arm()
	firstDone := async(func() error { return c.RaidFile("f") })
	gate.waitParked(t)
	secondDone := async(func() error { return c.RaidFile("f") })
	select {
	case err := <-secondDone:
		t.Fatalf("a second raid of a file in flight returned (%v) before the first committed", err)
	case <-time.After(50 * time.Millisecond):
	}
	gate.release()
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if err := <-secondDone; !errors.Is(err, ErrAlreadyRaided) {
		t.Fatalf("second raid of one file: %v, want ErrAlreadyRaided", err)
	}
	if st := c.Stats(); st.Stripes != 3 || st.ParityBlocks != 6 {
		t.Fatalf("after two raids of a 10-block file: %d stripes, %d parity blocks; want 3 and 6", st.Stripes, st.ParityBlocks)
	}
	if err := readsOf(c, "f", data)(); err != nil {
		t.Fatal(err)
	}
	assertStoresRecorded(t, c)
}

// BenchmarkWriteBesideReads is ingest_mixed's contention in the hdfs
// layer alone: one goroutine ingests fresh 10 x 16 KiB files (WriteFile,
// then RaidFile) for as long as the benchmark runs, while the loop reads
// 48 preloaded files of that shape the way the serving path does — the
// FileBlocks lookup under the read lock, then each block's range read
// outside it. Every store is an extent store in a temp dir. It reports
// reads/s and the metadata-lock wait per read (LockStats, both sides'
// waits over the reads), so a write or raid holding the lock across its
// disk I/O shows up as wait.
func BenchmarkWriteBesideReads(b *testing.B) {
	const (
		blockSize = 16 << 10
		blocks    = 10
		files     = 48
	)
	code, err := core.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(Config{
		Topology:     cluster.Topology{Racks: 16, MachinesPerRack: 2},
		Code:         code,
		BlockSize:    blockSize,
		Replication:  3,
		Seed:         1,
		StoreFactory: ExtentStoreFactory(b.TempDir(), extent.Options{}),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("pre/%02d", i)
		if err := c.WriteFile(name, randBytes(int64(i), blocks*blockSize)); err != nil {
			b.Fatal(err)
		}
		if err := c.RaidFile(name); err != nil {
			b.Fatal(err)
		}
	}

	var stop atomic.Bool
	var ingests int
	ingested := async(func() error {
		payload := randBytes(-1, blocks*blockSize)
		for ; !stop.Load(); ingests++ {
			name := fmt.Sprintf("ingest/%06d", ingests)
			if err := c.WriteFile(name, payload); err != nil {
				return err
			}
			if err := c.RaidFile(name); err != nil {
				return err
			}
		}
		return nil
	})

	buf := make([]byte, blockSize)
	b.ReportAllocs()
	b.ResetTimer()
	before, start := c.LockStats(), time.Now()
	for i := 0; i < b.N; i++ {
		_, info, err := c.FileBlocks(fmt.Sprintf("pre/%02d", i%files))
		if err != nil {
			b.Fatal(err)
		}
		for _, bl := range info {
			if _, err := c.NodeReadRangeInto(bl.Locations[0], bl.ID, 0, bl.Size, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	elapsed, after := time.Since(start), c.LockStats()
	b.StopTimer()
	stop.Store(true)
	if err := <-ingested; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "reads/s")
	b.ReportMetric(float64(after.WaitNanos-before.WaitNanos)/float64(b.N), "lockwait-ns/read")
	b.ReportMetric(float64(ingests)/elapsed.Seconds(), "ingests/s")
}
