package lrc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ec"
)

func randShards(rng *rand.Rand, c *Code, size int) [][]byte {
	shards := make([][]byte, c.TotalShards())
	for i := 0; i < c.DataShards(); i++ {
		shards[i] = make([]byte, size)
		rng.Read(shards[i])
	}
	return shards
}

func cloneShards(shards [][]byte) [][]byte {
	out := make([][]byte, len(shards))
	for i, s := range shards {
		if s != nil {
			out[i] = append([]byte(nil), s...)
		}
	}
	return out
}

func forEachCombination(n, m int, fn func([]int)) {
	idx := make([]int, m)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == m {
			fn(append([]int(nil), idx...))
			return
		}
		for i := start; i <= n-(m-depth); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

func memFetch(shards [][]byte) ec.FetchFunc {
	return func(req ec.ReadRequest) ([]byte, error) {
		s := shards[req.Shard]
		if s == nil {
			return nil, fmt.Errorf("shard %d missing", req.Shard)
		}
		return append([]byte(nil), s[req.Offset:req.Offset+req.Length]...), nil
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(10, 4, 0); err == nil {
		t.Fatal("zero local groups must be rejected")
	}
	if _, err := New(4, 2, 5); err == nil {
		t.Fatal("more groups than data shards must be rejected")
	}
	if _, err := New(0, 2, 1); err == nil {
		t.Fatal("k=0 must be rejected")
	}
}

func TestXorbasConfiguration(t *testing.T) {
	c, err := New(10, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "lrc(10,4,2)" {
		t.Fatalf("Name() = %q", c.Name())
	}
	if c.TotalShards() != 16 {
		t.Fatalf("TotalShards = %d, want 16", c.TotalShards())
	}
	if c.ParityShards() != 6 || c.r != 4 || c.nLocal != 2 {
		t.Fatal("wrong parity split")
	}
	// §5: LRC is NOT storage optimal — 1.6x vs the 1.4x of (Piggybacked-)RS.
	if c.StorageOverhead() != 1.6 {
		t.Fatalf("StorageOverhead = %v, want 1.6", c.StorageOverhead())
	}
	groups := c.localGroups
	if len(groups) != 2 || len(groups[0]) != 5 || len(groups[1]) != 5 {
		t.Fatalf("local groups %v, want two groups of 5", groups)
	}
}

func TestEncodeVerify(t *testing.T) {
	c, _ := New(10, 4, 2)
	rng := rand.New(rand.NewSource(1))
	shards := randShards(rng, c, 64)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("Verify = (%v, %v), want (true, nil)", ok, err)
	}
	shards[15][3] ^= 1 // corrupt a local parity
	if ok, _ := c.Verify(shards); ok {
		t.Fatal("Verify missed local parity corruption")
	}
	shards[15][3] ^= 1
	shards[11][0] ^= 1 // corrupt a global parity
	if ok, _ := c.Verify(shards); ok {
		t.Fatal("Verify missed global parity corruption")
	}
}

func TestLocalParityIsGroupXor(t *testing.T) {
	c, _ := New(4, 2, 2)
	shards := [][]byte{{1}, {2}, {4}, {8}, nil, nil, nil, nil}
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	if shards[6][0] != 1^2 {
		t.Fatalf("local parity 0 = %d, want %d", shards[6][0], 1^2)
	}
	if shards[7][0] != 4^8 {
		t.Fatalf("local parity 1 = %d, want %d", shards[7][0], 4^8)
	}
}

func TestToleratesAnyFourErasuresXorbas(t *testing.T) {
	// Exhaustive: all C(16,4) = 1820 four-erasure patterns of the
	// (10,4,2) Xorbas code must be recoverable.
	c, _ := New(10, 4, 2)
	rng := rand.New(rand.NewSource(2))
	orig := randShards(rng, c, 32)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	forEachCombination(16, 4, func(erased []int) {
		work := cloneShards(orig)
		for _, e := range erased {
			work[e] = nil
		}
		if err := c.Reconstruct(work); err != nil {
			t.Fatalf("erased %v: %v", erased, err)
		}
		for i := range orig {
			if !bytes.Equal(work[i], orig[i]) {
				t.Fatalf("erased %v: shard %d mismatch", erased, i)
			}
		}
	})
}

func TestSomeFiveErasuresRecoverable(t *testing.T) {
	// Locality buys recovery of some patterns beyond r: three data
	// shards plus both local parities (5 losses) — the global RS pass
	// still has 11 survivors among data+globals, restores all data, and
	// the local pass recomputes both local parities.
	c, _ := New(10, 4, 2)
	rng := rand.New(rand.NewSource(3))
	orig := randShards(rng, c, 16)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	work := cloneShards(orig)
	for _, e := range []int{0, 1, 2, 14, 15} {
		work[e] = nil
	}
	if err := c.Reconstruct(work); err != nil {
		t.Fatalf("recoverable 5-erasure pattern failed: %v", err)
	}
	for i := range orig {
		if !bytes.Equal(work[i], orig[i]) {
			t.Fatalf("shard %d mismatch", i)
		}
	}
}

func TestUnrecoverablePattern(t *testing.T) {
	// An entire local group (5 data) plus its local parity is 6 losses
	// with only 9 survivors among data+globals: unrecoverable.
	c, _ := New(10, 4, 2)
	rng := rand.New(rand.NewSource(4))
	orig := randShards(rng, c, 16)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	work := cloneShards(orig)
	for _, e := range []int{0, 1, 2, 3, 4, 10} {
		work[e] = nil
	}
	if err := c.Reconstruct(work); !errors.Is(err, ec.ErrTooFewShards) {
		t.Fatalf("expected ErrTooFewShards, got %v", err)
	}
}

func TestPlanRepairLocalCost(t *testing.T) {
	// The LRC selling point: single data shard repair reads only its
	// local group — 5 shards instead of 10 for the Xorbas config.
	c, _ := New(10, 4, 2)
	const size = 4096
	for idx := 0; idx < 10; idx++ {
		plan, err := c.PlanRepair(idx, size, ec.AllAliveExcept(idx))
		if err != nil {
			t.Fatal(err)
		}
		if plan.TotalBytes() != 5*size {
			t.Fatalf("data shard %d: %d bytes, want %d", idx, plan.TotalBytes(), 5*size)
		}
	}
	// Local parities likewise repair from their group.
	for _, idx := range []int{14, 15} {
		plan, err := c.PlanRepair(idx, size, ec.AllAliveExcept(idx))
		if err != nil {
			t.Fatal(err)
		}
		if plan.TotalBytes() != 5*size {
			t.Fatalf("local parity %d: %d bytes, want %d", idx, plan.TotalBytes(), 5*size)
		}
	}
	// Global parities pay the full RS price.
	for _, idx := range []int{10, 11, 12, 13} {
		plan, err := c.PlanRepair(idx, size, ec.AllAliveExcept(idx))
		if err != nil {
			t.Fatal(err)
		}
		if plan.TotalBytes() != 10*size {
			t.Fatalf("global parity %d: %d bytes, want %d", idx, plan.TotalBytes(), 10*size)
		}
	}
}

func TestPlanRepairFallsBackWhenGroupBroken(t *testing.T) {
	c, _ := New(10, 4, 2)
	// Shard 0's group-mate 1 is also down: local repair impossible,
	// fall back to k reads over data+globals.
	alive := ec.AllAliveExcept(0, 1)
	plan, err := c.PlanRepair(0, 100, alive)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalBytes() != 10*100 {
		t.Fatalf("fallback cost %d, want %d", plan.TotalBytes(), 1000)
	}
	for _, r := range plan.Reads {
		if r.Shard == 0 || r.Shard == 1 {
			t.Fatal("plan reads a dead shard")
		}
	}
}

func TestExecuteRepairEveryShard(t *testing.T) {
	c, _ := New(10, 4, 2)
	rng := rand.New(rand.NewSource(5))
	orig := randShards(rng, c, 256)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 16; idx++ {
		got, err := c.ExecuteRepair(idx, 256, ec.AllAliveExcept(idx), memFetch(orig))
		if err != nil {
			t.Fatalf("repair %d: %v", idx, err)
		}
		if !bytes.Equal(got, orig[idx]) {
			t.Fatalf("repair %d wrong bytes", idx)
		}
	}
}

func TestExecuteRepairDegraded(t *testing.T) {
	c, _ := New(10, 4, 2)
	rng := rand.New(rand.NewSource(6))
	orig := randShards(rng, c, 64)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	// Repair local parity 14 through the global path while two of its
	// group members are down.
	alive := ec.AllAliveExcept(14, 0, 1)
	got, err := c.ExecuteRepair(14, 64, alive, memFetch(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig[14]) {
		t.Fatal("degraded local parity repair wrong bytes")
	}
}

func TestRepairFractionXorbas(t *testing.T) {
	// Average repair fraction for (10,4,2): 12 of 16 shards repair at
	// 0.5, 4 globals at 1.0 -> 0.625. Cheaper than Piggybacked-RS's
	// 0.76 but bought with 1.6x storage (the paper's §5 point).
	c, _ := New(10, 4, 2)
	per, avg, err := ec.RepairFraction(c, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 10; idx++ {
		if per[idx] != 0.5 {
			t.Fatalf("data shard %d fraction %v, want 0.5", idx, per[idx])
		}
	}
	if avg != (12*0.5+4*1.0)/16 {
		t.Fatalf("average fraction %v, want 0.625", avg)
	}
}

func TestUnevenGroups(t *testing.T) {
	c, err := New(5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	groups := c.localGroups
	if len(groups[0]) != 3 || len(groups[1]) != 2 {
		t.Fatalf("groups %v, want sizes [3 2]", groups)
	}
	rng := rand.New(rand.NewSource(7))
	orig := randShards(rng, c, 32)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < c.TotalShards(); idx++ {
		got, err := c.ExecuteRepair(idx, 32, ec.AllAliveExcept(idx), memFetch(orig))
		if err != nil {
			t.Fatalf("repair %d: %v", idx, err)
		}
		if !bytes.Equal(got, orig[idx]) {
			t.Fatalf("repair %d wrong bytes", idx)
		}
	}
}

func TestReconstructProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(10)
		r := 1 + rng.Intn(4)
		g := 1 + rng.Intn(k)
		c, err := New(k, r, g)
		if err != nil {
			return false
		}
		size := 1 + rng.Intn(64)
		orig := randShards(rng, c, size)
		if err := c.Encode(orig); err != nil {
			return false
		}
		// Erase up to r shards: always recoverable (globals alone
		// tolerate r among data+globals; locals only help).
		work := cloneShards(orig)
		for _, e := range rng.Perm(c.TotalShards())[:1+rng.Intn(r)] {
			work[e] = nil
		}
		if err := c.Reconstruct(work); err != nil {
			return false
		}
		for i := range orig {
			if !bytes.Equal(work[i], orig[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPlanRepairErrors(t *testing.T) {
	c, _ := New(4, 2, 2)
	if _, err := c.PlanRepair(99, 8, ec.AllAliveExcept(99)); !errors.Is(err, ec.ErrShardIndex) {
		t.Fatalf("bad index: %v", err)
	}
	if _, err := c.PlanRepair(0, 0, ec.AllAliveExcept(0)); !errors.Is(err, ec.ErrShardSize) {
		t.Fatalf("bad size: %v", err)
	}
	if _, err := c.PlanRepair(0, 8, ec.AllAliveExcept(1)); !errors.Is(err, ec.ErrShardPresent) {
		t.Fatalf("alive target: %v", err)
	}
}
