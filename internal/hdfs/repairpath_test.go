package hdfs

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ec"
	"repro/internal/extent"
	"repro/internal/telemetry"
)

// openStore opens an extent store in a directory of the test's own and
// closes it with the test.
func openStore(t *testing.T) BlockStore {
	t.Helper()
	st, err := ExtentStoreFactory(t.TempDir(), extent.Options{})(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// testStores opens one of each BlockStore the read path can sit on.
func testStores(t *testing.T) map[string]BlockStore {
	t.Helper()
	return map[string]BlockStore{
		"extent": openStore(t),
		"cached": newCachedBlockStore(openStore(t), 1<<20, nil),
	}
}

// viewOf reports whether view's first byte lies inside buf's backing
// array.
func viewOf(view, buf []byte) bool {
	buf = buf[:cap(buf)]
	for i := range buf {
		if &buf[i] == &view[0] {
			return true
		}
	}
	return false
}

// TestStoreReadsAreCallerOwned is the ownership half of the pooled read
// path, one row per store: Get (and GetInto, where the store has it)
// hands the caller memory no later read, overwrite or bit-rot injection
// can reach, and GetInto lands in the caller's buffer when it fits.
func TestStoreReadsAreCallerOwned(t *testing.T) {
	payload := randBytes(3, 300)
	for name, st := range testStores(t) {
		if err := st.Put(7, payload); err != nil {
			t.Fatal(err)
		}
		got, err := st.Get(7)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: Get: %v", name, err)
		}
		for i := range got {
			got[i] ^= 0xFF // the caller's copy: scribbling must not reach the store
		}
		if again, err := st.Get(7); err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("%s: a second Get sees the first caller's writes (err %v)", name, err)
		}
		held, _ := st.Get(7)
		if err := st.Corrupt(7, 5); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(held, payload) {
			t.Fatalf("%s: bit rot injected into the store changed a buffer a reader holds", name)
		}
		if err := st.Put(7, payload); err != nil { // heal
			t.Fatal(err)
		}

		into, ok := st.(intoStore)
		if !ok {
			t.Fatalf("%s: no GetInto — the fixer would read it through the allocating Get", name)
		}
		buf := make([]byte, 512)
		got, err = into.GetInto(7, 0, wholeBlock, buf)
		if err != nil || !bytes.Equal(got, payload) || &got[0] != &buf[0] {
			t.Fatalf("%s: GetInto did not land the payload in the caller's buffer (err %v)", name, err)
		}
		got, err = into.GetInto(7, 0, wholeBlock, make([]byte, 10))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: GetInto with too small a buffer: %v", name, err)
		}
		// A range is clipped to the payload's end and still lands in buf.
		for _, r := range [][2]int64{{10, 50}, {250, 100}, {300, 5}, {1000, 5}, {0, 0}} {
			got, err = into.GetInto(7, r[0], r[1], buf)
			if err != nil || !bytes.Equal(got, clipRange(payload, r[0], r[1])) {
				t.Fatalf("%s: GetInto range [%d,+%d) wrong (err %v)", name, r[0], r[1], err)
			}
			if len(got) > 0 && !viewOf(got, buf) {
				t.Fatalf("%s: GetInto range [%d,+%d) did not land in the caller's buffer", name, r[0], r[1])
			}
		}
		if _, err := into.GetInto(8, 0, wholeBlock, buf); err == nil {
			t.Fatalf("%s: GetInto of an unknown block succeeded", name)
		}
	}
}

// TestReadRangeIntoViewsAndPads: with a recycled shard-sized buffer the
// range comes back as a view of it — read once, no second copy — zero
// padded in place past the payload's end, for every store; a corrupt
// replica is still refused on the pooled path.
func TestReadRangeIntoViewsAndPads(t *testing.T) {
	payload := randBytes(4, 100)
	for name, st := range testStores(t) {
		if err := st.Put(7, payload); err != nil {
			t.Fatal(err)
		}
		d := &dataNode{id: 0, alive: true, store: st}
		buf := bytes.Repeat([]byte{0xEE}, 128) // stale bytes of an earlier repair
		for _, tc := range []struct{ off, n int64 }{{0, 100}, {10, 50}, {64, 64}, {0, 128}, {100, 28}, {120, 8}} {
			want := make([]byte, tc.n)
			if tc.off < 100 {
				copy(want, payload[tc.off:])
			}
			got, err := d.readRangeInto(7, tc.off, tc.n, buf)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: readRangeInto(%d, %d) wrong (err %v)", name, tc.off, tc.n, err)
			}
			if _, pooled := st.(intoStore); pooled && !viewOf(got, buf) {
				t.Fatalf("%s: readRangeInto(%d, %d) is not a view of the caller's buffer", name, tc.off, tc.n)
			}
			if plain, err := d.readRange(7, tc.off, tc.n); err != nil || !bytes.Equal(plain, want) {
				t.Fatalf("%s: readRange(%d, %d) wrong (err %v)", name, tc.off, tc.n, err)
			}
		}
		if _, err := d.readRangeInto(7, 1<<62, 1<<62, buf); err == nil {
			t.Fatalf("%s: overflowing range accepted", name)
		}
		if err := st.Corrupt(7, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := d.readRangeInto(7, 0, 100, buf); err == nil {
			t.Fatalf("%s: pooled read served a corrupt replica", name)
		}
	}
}

// TestReadFileResultIsCallerOwned: what ReadFile returns — healthy and
// degraded — is the caller's: scribbling over it changes no later read.
func TestReadFileResultIsCallerOwned(t *testing.T) {
	c := testCluster(t, pbCode(t), 3)
	data := randBytes(9, 6000)
	if err := c.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	for _, degraded := range []bool{false, true} {
		if degraded {
			locs, _ := c.BlockLocations("f")
			c.FailMachine(locs[1][0])
		}
		got, err := c.ReadFile("f")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("degraded=%v: read: %v", degraded, err)
		}
		for i := range got {
			got[i] = 0
		}
		if again, err := c.ReadFile("f"); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("degraded=%v: a second read sees the first caller's writes (err %v)", degraded, err)
		}
	}
}

// TestFixerReadsHelpersIntoTheWorkerArena: a fixer pass over a machine's
// worth of lost blocks draws its helper reads from the engine's scratch
// pool, and the repaired blocks, which outlive the arena, read back byte
// for byte.
func TestFixerReadsHelpersIntoTheWorkerArena(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := persistentConfig(t, t.TempDir(), reg)
	cfg.Code = pbCode(t)
	c := withFixerWorkers(newForTest(t, cfg), 1)
	files := map[string][]byte{}
	for i, name := range []string{"a", "b", "c", "d", "e", "f"} {
		files[name] = randBytes(int64(30+i), 4*1024)
		if err := c.WriteFile(name, files[name]); err != nil {
			t.Fatal(err)
		}
		if err := c.RaidFile(name); err != nil {
			t.Fatal(err)
		}
	}
	// Lose one block of every file: the first block's machine, unless
	// another file's decommission already took it.
	for name := range files {
		if locs, _ := c.BlockLocations(name); len(locs[0]) > 0 {
			c.DecommissionMachine(locs[0][0])
		}
	}
	report, err := c.RunBlockFixer()
	if err != nil || len(report.Unrecoverable) != 0 || report.RepairedStriped < len(files) {
		t.Fatalf("fixer: %+v, %v", report, err)
	}
	snap := reg.Snapshot()
	hits, misses := snap.Counters["engine_scratch_hits_total"], snap.Counters["engine_scratch_misses_total"]
	if hits == 0 || hits < 2*misses {
		t.Fatalf("scratch hits/misses = %d/%d: helper reads are not recycling the arena", hits, misses)
	}
	for name, want := range files {
		if got, err := c.ReadFile(name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after repair: %v", name, err)
		}
	}
	if h := c.Health(); !h.Healthy() {
		t.Fatalf("unhealthy after the pass: %+v", h)
	}
}

// TestFixerTrafficIsThePlans: reading each helper once and coalescing a
// group member's two halves into one read changes how many fetches a
// repair makes, never what it moves: every single-block fix charges the
// network exactly its codec plan's bytes.
func TestFixerTrafficIsThePlans(t *testing.T) {
	code := pbCode(t)
	c := newForTest(t, Config{
		Topology:    cluster.Topology{Racks: 20, MachinesPerRack: 3},
		Code:        code,
		BlockSize:   1024,
		Replication: 3,
		Seed:        12,
	})
	if err := c.WriteFile("f", randBytes(2, 4*1024)); err != nil {
		t.Fatal(err)
	}
	if err := c.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < code.TotalShards(); pos++ {
		sid, _ := stripeOf(t, c, "f", 0)
		detail, err := c.Stripe(sid)
		if err != nil {
			t.Fatal(err)
		}
		holder := detail.Positions[pos].Locations[0]
		c.DecommissionMachine(holder)
		plan, err := code.PlanRepair(pos, detail.ShardSize, ec.AllAliveExcept(pos))
		if err != nil {
			t.Fatal(err)
		}
		before := c.Network().CrossRackBytes()
		report, err := c.RunBlockFixer()
		if err != nil || report.RepairedStriped != 1 {
			t.Fatalf("position %d: fixer: %+v, %v", pos, report, err)
		}
		if moved := c.Network().CrossRackBytes() - before; moved != plan.TotalBytes() {
			t.Fatalf("position %d: the fix moved %d bytes, its plan charges %d", pos, moved, plan.TotalBytes())
		}
		if err := c.RecoverMachine(holder); err != nil {
			t.Fatal(err)
		}
	}
}
