package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The namenode's "blocks" and "info" requests, and every dn.read the
// datanodes answered.
const (
	blocksRPCs = `rpc_requests_total{role="namenode",method="blocks"}`
	infoRPCs   = `rpc_requests_total{role="namenode",method="info"}`
	dnReads    = `rpc_requests_total{role="datanode",method="dn.read"}`
)

// tableSystem starts an instrumented system, writes one file of three
// blocks (raided when raid is set), and dials a client with a block
// cache that holds the whole file.
func tableSystem(t *testing.T, raid bool) (*System, *Client, []byte) {
	t.Helper()
	codes := testCodecs(t)
	sys := startTestSystem(t, codes[0], WithTelemetry(TelemetryConfig{}))
	cl, err := Dial(sys.NameAddr(), codes[0], WithBlockCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	data := make([]byte, 2*4096+9)
	rand.New(rand.NewSource(5)).Read(data)
	if err := cl.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if raid {
		if err := cl.RaidFile("f"); err != nil {
			t.Fatal(err)
		}
	}
	return sys, cl, data
}

// reread reads "f", checks its bytes, and returns what the read added
// to the client's counters and to the namenode's "blocks" requests.
func reread(t *testing.T, sys *System, cl *Client, data []byte) (Counters, int64) {
	t.Helper()
	c0, b0 := cl.Counters(), counter(sys, blocksRPCs)
	got, err := cl.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read mismatched")
	}
	c1 := cl.Counters()
	return Counters{
		BlocksRead:     c1.BlocksRead - c0.BlocksRead,
		DegradedBlocks: c1.DegradedBlocks - c0.DegradedBlocks,
		CacheHits:      c1.CacheHits - c0.CacheHits,
		CacheMisses:    c1.CacheMisses - c0.CacheMisses,
		TableHits:      c1.TableHits - c0.TableHits,

		DegradedBytesFetched: c1.DegradedBytesFetched - c0.DegradedBytesFetched,
		DegradedBytesLent:    c1.DegradedBytesLent - c0.DegradedBytesLent,
	}, counter(sys, blocksRPCs) - b0
}

// TestBlockCacheRereadOfARaidedFileMakesNoRPC: once a client with a
// block cache has read a raided file, a reread whose blocks all hit asks
// neither the namenode nor a datanode anything, and TableHits counts it.
func TestBlockCacheRereadOfARaidedFileMakesNoRPC(t *testing.T) {
	sys, cl, data := tableSystem(t, true)
	if d, blocks := reread(t, sys, cl, data); blocks != 1 || d.TableHits != 0 || d.CacheMisses != 3 {
		t.Fatalf("cold read: %d blocks RPCs, counters %+v; want 1 RPC, 3 misses, no table hit", blocks, d)
	}
	r0 := counter(sys, dnReads)
	d, blocks := reread(t, sys, cl, data)
	if blocks != 0 || d.TableHits != 1 || d.CacheHits != 3 || d.CacheMisses != 0 {
		t.Fatalf("warm reread: %d blocks RPCs, counters %+v; want none, 1 table hit, 3 block hits", blocks, d)
	}
	if n := counter(sys, dnReads) - r0; n != 0 {
		t.Fatalf("warm reread made %d dn.read RPCs, want 0", n)
	}
}

// TestBlockCacheRereadOfAnUnraidedFileAsksTheNamenode: an unraided
// file's table is never kept — its locations change when it is raided,
// and its reads keep the namenode's last-access time, which the
// cold-raid policy reads — so every reread fetches it, blocks cached or
// not.
func TestBlockCacheRereadOfAnUnraidedFileAsksTheNamenode(t *testing.T) {
	sys, cl, data := tableSystem(t, false)
	reread(t, sys, cl, data)
	if d, blocks := reread(t, sys, cl, data); blocks != 1 || d.TableHits != 0 || d.CacheHits != 3 {
		t.Fatalf("reread: %d blocks RPCs, counters %+v; want 1 RPC, 3 block hits, no table hit", blocks, d)
	}
	if _, _, ok := cl.keptTable("f"); ok {
		t.Fatal("the cache holds an unraided file's table")
	}
}

// TestKeptTableIsRefetchedOnceWhenItsHolderDies: a kept table lists a
// holder that has died and whose block the fixer has rebuilt elsewhere.
// The reread's walk fails on the listed holder, which fetches the
// address table once, fetches one fresh block table and reads the
// rebuilt replica from it — no degraded read — and the fresh table is
// kept for the next reread.
func TestKeptTableIsRefetchedOnceWhenItsHolderDies(t *testing.T) {
	sys, cl, data := tableSystem(t, true)
	reread(t, sys, cl, data)
	_, table, ok := cl.keptTable("f")
	if !ok {
		t.Fatal("the first read kept no table")
	}
	victim := table[1].Locations[0]
	cl.blockCache.Delete(uint64(table[1].ID))
	if err := sys.KillDataNode(victim); err != nil {
		t.Fatal(err)
	}
	admin := dial(t, sys)
	if rep, err := admin.RunBlockFixer(); err != nil || rep.RepairedStriped == 0 {
		t.Fatalf("fixer: %+v, %v", rep, err)
	}
	i0 := counter(sys, infoRPCs)
	d, blocks := reread(t, sys, cl, data)
	if blocks != 1 || d.DegradedBlocks != 0 || d.TableHits != 0 {
		t.Fatalf("reread past the dead holder: %d blocks RPCs, counters %+v; want 1 RPC, no degraded block", blocks, d)
	}
	if info := counter(sys, infoRPCs) - i0; info != 1 {
		t.Fatalf("reread past the dead holder: %d info RPCs, want 1", info)
	}
	_, table, ok = cl.keptTable("f")
	if !ok || len(table[1].Locations) == 0 || table[1].Locations[0] == victim {
		t.Fatalf("kept table after the refetch: %+v (held %v); want block 1 away from machine %d", table, ok, victim)
	}
	if d, blocks := reread(t, sys, cl, data); blocks != 0 || d.TableHits != 1 {
		t.Fatalf("next reread: %d blocks RPCs, counters %+v; want none, 1 table hit", blocks, d)
	}
}

// TestUncachedRetryPastADeadHolderFetchesTheAddressesOnce: the retry of
// TestKeptTableIsRefetchedOnceWhenItsHolderDies without a block cache,
// on a table fetched before the holder died. The failed call to the
// holder fetches the address table (see relocated), so the retry that
// follows fetches only the block table.
func TestUncachedRetryPastADeadHolderFetchesTheAddressesOnce(t *testing.T) {
	sys, _, data := tableSystem(t, false)
	cl := dial(t, sys)
	size, blocks, err := cl.fileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	// The table as it stood when the victim was block 1's only listed
	// holder; the namenode's lists the other replicas.
	victim := blocks[1].Locations[0]
	blocks[1].Locations = []int{victim}
	if err := sys.KillDataNode(victim); err != nil {
		t.Fatal(err)
	}
	i0, b0 := counter(sys, infoRPCs), counter(sys, blocksRPCs)
	slot := make([]byte, blocks[1].Size)
	if err := cl.readBlock(&fileTable{name: "f", size: size, blocks: blocks}, 1, slot, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slot, data[4096:8192]) {
		t.Fatal("block 1 read mismatched")
	}
	if info, blocks := counter(sys, infoRPCs)-i0, counter(sys, blocksRPCs)-b0; info != 1 || blocks != 1 {
		t.Fatalf("read past the dead holder: %d info and %d blocks RPCs, want 1 and 1", info, blocks)
	}
}

// TestKeptTableRefetchKeepsWhatTheReadHolds: a kept table's holder of block 1
// dies and nothing repairs it. The reread's walk fails, the fresh table
// lists no holder, and block 1 is rebuilt from its stripe in the second
// pass — lent block 0, which the read held before the refetch, as well
// as block 2: the degraded read fetches and is lent what a cacheless
// client's is.
func TestKeptTableRefetchKeepsWhatTheReadHolds(t *testing.T) {
	sys, cl, data := tableSystem(t, true)
	reread(t, sys, cl, data)
	_, table, ok := cl.keptTable("f")
	if !ok {
		t.Fatal("the first read kept no table")
	}
	cl.blockCache.Delete(uint64(table[1].ID))
	if err := sys.KillDataNode(table[1].Locations[0]); err != nil {
		t.Fatal(err)
	}
	d, blocks := reread(t, sys, cl, data)
	want, _ := reread(t, sys, dial(t, sys), data)
	if blocks != 1 || d.DegradedBlocks != 1 || want.DegradedBlocks != 1 {
		t.Fatalf("reread: %d blocks RPCs, counters %+v; want 1 RPC, 1 degraded block", blocks, d)
	}
	if d.DegradedBytesLent != want.DegradedBytesLent || d.DegradedBytesFetched != want.DegradedBytesFetched {
		t.Fatalf("after a refetch the rebuild was lent %d bytes and fetched %d; a cacheless read's was lent %d and fetched %d",
			d.DegradedBytesLent, d.DegradedBytesFetched, want.DegradedBytesLent, want.DegradedBytesFetched)
	}
}

// TestTableWithALostBlockIsNotKept: a table that lists a block with no
// holder is what a repair changes, so it is not kept; once the block is
// rebuilt, the next read fetches the repaired table and reads the block
// from its new holder, not from its stripe.
func TestTableWithALostBlockIsNotKept(t *testing.T) {
	sys, cl, data := tableSystem(t, true)
	_, table, err := cl.fileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.KillDataNode(table[0].Locations[0]); err != nil {
		t.Fatal(err)
	}
	if d, _ := reread(t, sys, cl, data); d.DegradedBlocks != 1 {
		t.Fatalf("read with block 0 lost: counters %+v, want 1 degraded block", d)
	}
	if _, _, ok := cl.keptTable("f"); ok {
		t.Fatal("the cache kept a table that lists a block with no holder")
	}
	admin := dial(t, sys)
	if _, err := admin.RunBlockFixer(); err != nil {
		t.Fatal(err)
	}
	cl.blockCache.Delete(uint64(table[0].ID))
	if d, blocks := reread(t, sys, cl, data); blocks != 1 || d.DegradedBlocks != 0 || d.TableHits != 0 {
		t.Fatalf("read after repair: %d blocks RPCs, counters %+v; want 1 RPC, no degraded block", blocks, d)
	}
	if _, _, ok := cl.keptTable("f"); !ok {
		t.Fatal("the repaired table was not kept")
	}
}

// TestBlockCacheTablesSharedWhileAMachineDies: two goroutines share one
// client whose cache holds 12 of the files' 18 blocks, so tables and
// blocks are kept, hit, evicted and refetched under each other, while
// the holder of one file's first block dies mid-run. Every read returns
// the file's bytes; run it under -race.
func TestBlockCacheTablesSharedWhileAMachineDies(t *testing.T) {
	codes := testCodecs(t)
	sys := startTestSystem(t, codes[0])
	cl, err := Dial(sys.NameAddr(), codes[0], WithBlockCache(12*4096))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(9))
	files := make([][]byte, 6)
	for i := range files {
		files[i] = make([]byte, 3*4096)
		rng.Read(files[i])
		name := fmt.Sprintf("shared-%d", i)
		if err := cl.WriteFile(name, files[i]); err != nil {
			t.Fatal(err)
		}
		if err := cl.RaidFile(name); err != nil {
			t.Fatal(err)
		}
	}
	_, table, err := cl.fileBlocks("shared-0")
	if err != nil {
		t.Fatal(err)
	}
	victim := table[0].Locations[0]

	const rounds = 40
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if g == 0 && r == rounds/2 {
					if err := sys.KillDataNode(victim); err != nil {
						errs <- err
					}
				}
				i := (r*(g+1) + g) % len(files)
				got, err := cl.ReadFile(fmt.Sprintf("shared-%d", i))
				if err == nil && !bytes.Equal(got, files[i]) {
					err = fmt.Errorf("shared-%d mismatched", i)
				}
				if err != nil {
					errs <- fmt.Errorf("reader %d round %d: %w", g, r, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	c := cl.Counters()
	t.Logf("counters %+v", c)
	if c.TableHits == 0 || c.DegradedBlocks == 0 {
		t.Fatalf("counters %+v: want both kept tables and degraded reads exercised", c)
	}
}
