package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ec"
)

func randShards(rng *rand.Rand, k, r, size int) [][]byte {
	shards := make([][]byte, k+r)
	for i := 0; i < k; i++ {
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
			return nil, fmt.Errorf("shard %d is missing", req.Shard)
		}
		return append([]byte(nil), s[req.Offset:req.Offset+req.Length]...), nil
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(4, 1); err == nil {
		t.Fatal("r=1 must be rejected: nothing to piggyback")
	}
	if _, err := New(0, 2); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	bad := [][][]int{
		{},              // no groups
		{{0}, {1}, {2}}, // too many for r=3
		{{}},            // empty group
		{{0, 0}},        // duplicate member
		{{0}, {0}},      // member in two groups
		{{9}},           // out of range for k=4
		{{-1}},          // negative
	}
	for i, g := range bad {
		if _, err := New(4, 3, WithGroups(g)); err == nil {
			t.Errorf("bad groups case %d accepted: %v", i, g)
		}
	}
	if _, err := New(4, 3, WithGroups([][]int{{0, 1}, {2, 3}})); err != nil {
		t.Errorf("valid groups rejected: %v", err)
	}
	// Partial coverage is legal (some shards simply get no savings).
	if _, err := New(4, 3, WithGroups([][]int{{0}})); err != nil {
		t.Errorf("partial coverage rejected: %v", err)
	}
}

func TestDefaultGroupsFacebook(t *testing.T) {
	// (10,4): three groups of sizes 4,3,3 covering all data shards.
	groups := DefaultGroups(10, 4)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(groups))
	}
	sizes := []int{len(groups[0]), len(groups[1]), len(groups[2])}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Fatalf("group sizes %v, want [4 3 3]", sizes)
	}
	seen := make(map[int]bool)
	for _, g := range groups {
		for _, m := range g {
			if seen[m] {
				t.Fatalf("member %d duplicated", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("groups cover %d shards, want 10", len(seen))
	}
}

func TestDefaultGroupsTwoParities(t *testing.T) {
	// r=2: a single group of ceil(k/2) members maximises mean savings.
	g := DefaultGroups(2, 2)
	if len(g) != 1 || len(g[0]) != 1 || g[0][0] != 0 {
		t.Fatalf("DefaultGroups(2,2) = %v, want [[0]] (the paper's toy example)", g)
	}
	g = DefaultGroups(10, 2)
	if len(g) != 1 || len(g[0]) != 5 {
		t.Fatalf("DefaultGroups(10,2) = %v, want one group of 5", g)
	}
}

func TestDefaultGroupsMoreParitiesThanData(t *testing.T) {
	g := DefaultGroups(3, 5)
	if len(g) != 3 {
		t.Fatalf("groups must be capped at k: got %d", len(g))
	}
	for i, grp := range g {
		if len(grp) != 1 {
			t.Fatalf("group %d has %d members, want 1", i, len(grp))
		}
	}
}

func TestAccessors(t *testing.T) {
	c, err := New(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "piggybacked-rs(10,4)" {
		t.Fatalf("Name() = %q", c.Name())
	}
	if c.DataShards() != 10 || c.ParityShards() != 4 || c.TotalShards() != 14 {
		t.Fatal("wrong shard counts")
	}
	if c.MinShardSize() != 2 {
		t.Fatal("piggybacked shards must be even-sized")
	}
	if c.StorageOverhead() != 1.4 {
		t.Fatalf("StorageOverhead() = %v, want 1.4: the code must stay storage optimal", c.StorageOverhead())
	}
	groups := c.Groups()
	groups[0][0] = 99
	if c.Groups()[0][0] == 99 {
		t.Fatal("Groups() must return a copy")
	}
}

func TestEncodeVerifyRoundTrip(t *testing.T) {
	c, _ := New(10, 4)
	rng := rand.New(rand.NewSource(1))
	shards := randShards(rng, 10, 4, 128)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Verify(shards)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("freshly encoded stripe fails Verify")
	}
}

func TestEncodeOddSizeRejected(t *testing.T) {
	c, _ := New(4, 2)
	shards := make([][]byte, 6)
	for i := 0; i < 4; i++ {
		shards[i] = make([]byte, 7)
	}
	if err := c.Encode(shards); !errors.Is(err, ec.ErrShardSize) {
		t.Fatalf("odd shard size: got %v", err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	c, _ := New(6, 3)
	rng := rand.New(rand.NewSource(2))
	shards := randShards(rng, 6, 3, 64)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	spots := []struct {
		shard int
		off   int
		what  string
	}{
		{0, 3, "data a-half"},
		{0, 40, "data b-half"},
		{6, 3, "clean parity a-half"},
		{6, 40, "clean parity b-half"},
		{7, 40, "piggybacked parity b-half"},
		{8, 3, "piggybacked parity a-half"},
	}
	for _, s := range spots {
		shards[s.shard][s.off] ^= 0x5A
		ok, err := c.Verify(shards)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("Verify missed corruption in %s", s.what)
		}
		shards[s.shard][s.off] ^= 0x5A
	}
}

func TestPaperToyExample(t *testing.T) {
	// Fig. 4 / Example 1: k=2, r=2, piggyback a1 onto the second parity
	// of the second substripe. Recovery of node 1 downloads 3 bytes
	// instead of the 4 an RS code needs.
	c, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// One byte per substripe: shard size 2.
	shards := [][]byte{{0x0B, 0xC1}, {0x37, 0x2A}, nil, nil}
	orig := [][]byte{append([]byte(nil), shards[0]...), append([]byte(nil), shards[1]...)}
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}

	plan, err := c.PlanRepair(0, 2, ec.AllAliveExcept(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.TotalBytes(); got != 3 {
		t.Fatalf("toy example downloads %d bytes, want 3 (vs 4 under RS)", got)
	}
	if len(plan.Reads) != 3 {
		t.Fatalf("toy example reads %d ranges, want 3", len(plan.Reads))
	}
	// The three reads are the b-halves of node 2 and both parities.
	wantShards := map[int]bool{1: true, 2: true, 3: true}
	for _, r := range plan.Reads {
		if !wantShards[r.Shard] || r.Offset != 1 || r.Length != 1 {
			t.Fatalf("unexpected read %+v", r)
		}
		delete(wantShards, r.Shard)
	}

	got, err := c.ExecuteRepair(0, 2, ec.AllAliveExcept(0), memFetch(shards))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig[0]) {
		t.Fatalf("toy example repair = %v, want %v", got, orig[0])
	}

	// Node 2 is not piggybacked in this construction: repair costs the
	// RS amount (4 bytes) but must still succeed.
	plan2, err := c.PlanRepair(1, 2, ec.AllAliveExcept(1))
	if err != nil {
		t.Fatal(err)
	}
	if plan2.TotalBytes() != 4 {
		t.Fatalf("node 2 repair downloads %d bytes, want 4", plan2.TotalBytes())
	}
	got2, err := c.ExecuteRepair(1, 2, ec.AllAliveExcept(1), memFetch(shards))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, orig[1]) {
		t.Fatal("node 2 repair produced wrong bytes")
	}
}

func TestMDSExhaustive(t *testing.T) {
	// The headline fault-tolerance claim: like RS, the piggybacked code
	// tolerates ANY r erasures. Exhaustive over small parameter sets.
	for _, p := range []struct{ k, r int }{{2, 2}, {4, 2}, {4, 3}, {5, 3}, {3, 4}} {
		c, err := New(p.k, p.r)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(p.k*10 + p.r)))
		orig := randShards(rng, p.k, p.r, 32)
		if err := c.Encode(orig); err != nil {
			t.Fatal(err)
		}
		n := p.k + p.r
		for m := 1; m <= p.r; m++ {
			forEachCombination(n, m, func(erased []int) {
				work := cloneShards(orig)
				for _, e := range erased {
					work[e] = nil
				}
				if err := c.Reconstruct(work); err != nil {
					t.Fatalf("(%d,%d) erased %v: %v", p.k, p.r, erased, err)
				}
				for i := range orig {
					if !bytes.Equal(work[i], orig[i]) {
						t.Fatalf("(%d,%d) erased %v: shard %d mismatch", p.k, p.r, erased, i)
					}
				}
			})
		}
	}
}

func TestMDSFacebookParameters(t *testing.T) {
	c, err := New(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(104))
	orig := randShards(rng, 10, 4, 256)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	// All 4-subsets of 14 shards: 1001 patterns, exhaustive.
	forEachCombination(14, 4, func(erased []int) {
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

func TestReconstructTooFewShards(t *testing.T) {
	c, _ := New(4, 2)
	rng := rand.New(rand.NewSource(3))
	shards := randShards(rng, 4, 2, 16)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	shards[0], shards[1], shards[4] = nil, nil, nil
	if err := c.Reconstruct(shards); !errors.Is(err, ec.ErrTooFewShards) {
		t.Fatalf("expected ErrTooFewShards, got %v", err)
	}
}

func TestPlanRepairCostsFacebook(t *testing.T) {
	// (10,4), groups {4,3,3}: repairing a shard in the size-4 group
	// downloads (10+4)/2 = 7 shard equivalents (70% of RS); size-3
	// groups 6.5 (65%); parities fall back to 10 (100%).
	c, _ := New(10, 4)
	const size = 1 << 20
	wantHalves := map[int]int64{0: 14, 1: 14, 2: 14, 3: 14, 4: 13, 5: 13, 6: 13, 7: 13, 8: 13, 9: 13}
	for idx := 0; idx < 14; idx++ {
		plan, err := c.PlanRepair(idx, size, ec.AllAliveExcept(idx))
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		if h, ok := wantHalves[idx]; ok {
			want = h * size / 2
		} else {
			want = 10 * size
		}
		if plan.TotalBytes() != want {
			t.Fatalf("shard %d: plan downloads %d, want %d", idx, plan.TotalBytes(), want)
		}
	}
}

func TestTheoreticalFractionsMatchPlans(t *testing.T) {
	// The closed-form fractions must agree with the actual plans.
	for _, p := range []struct{ k, r int }{{10, 4}, {6, 3}, {12, 4}, {8, 2}, {5, 5}} {
		c, err := New(p.k, p.r)
		if err != nil {
			t.Fatal(err)
		}
		per, avg, err := ec.RepairFraction(c, 4096)
		if err != nil {
			t.Fatal(err)
		}
		for idx, f := range per {
			want := c.TheoreticalRepairFraction(idx)
			if math.Abs(f-want) > 1e-9 {
				t.Fatalf("(%d,%d) shard %d: measured %v, theory %v", p.k, p.r, idx, f, want)
			}
		}
		if math.Abs(avg-c.AverageRepairFraction()) > 1e-9 {
			t.Fatalf("(%d,%d): avg %v, theory %v", p.k, p.r, avg, c.AverageRepairFraction())
		}
	}
}

func TestPaperSavingsClaim(t *testing.T) {
	// §3.1: "This code, in theory, saves around 30% on average in the
	// amount of read and download for recovery of single block
	// failures." For (10,4) with groups {4,3,3} the savings on data
	// blocks average 33.5%; over all 14 blocks 23.9%. The paper's ~30%
	// must sit inside that bracket.
	c, _ := New(10, 4)
	dataSaving := 1 - c.AverageDataRepairFraction()
	allSaving := 1 - c.AverageRepairFraction()
	if dataSaving < 0.30 || dataSaving > 0.40 {
		t.Fatalf("data-shard average saving = %.3f, want ~0.33", dataSaving)
	}
	if allSaving < 0.20 || allSaving > 0.30 {
		t.Fatalf("all-shard average saving = %.3f, want ~0.24", allSaving)
	}
	if !(allSaving < 0.30 && 0.30 < dataSaving+0.05) {
		t.Fatalf("paper's 30%% claim outside bracket [%.3f, %.3f]", allSaving, dataSaving)
	}
}

func TestExecuteRepairEveryShard(t *testing.T) {
	c, _ := New(10, 4)
	rng := rand.New(rand.NewSource(7))
	orig := randShards(rng, 10, 4, 512)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 14; idx++ {
		got, err := c.ExecuteRepair(idx, 512, ec.AllAliveExcept(idx), memFetch(orig))
		if err != nil {
			t.Fatalf("repair %d: %v", idx, err)
		}
		if !bytes.Equal(got, orig[idx]) {
			t.Fatalf("repair %d produced wrong bytes", idx)
		}
	}
}

func TestExecuteRepairFallbackWhenHelpersDead(t *testing.T) {
	// If the clean parity is down, the cheap path for data shards is
	// unavailable; the repair must fall back to the RS-cost path and
	// still produce correct bytes.
	c, _ := New(10, 4)
	rng := rand.New(rand.NewSource(8))
	orig := randShards(rng, 10, 4, 256)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	alive := ec.AllAliveExcept(0, 10) // data shard 0 and clean parity
	plan, err := c.PlanRepair(0, 256, alive)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalBytes() != 10*256 {
		t.Fatalf("fallback plan downloads %d, want RS cost %d", plan.TotalBytes(), 10*256)
	}
	got, err := c.ExecuteRepair(0, 256, alive, memFetch(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig[0]) {
		t.Fatal("fallback repair produced wrong bytes")
	}

	// Same when a fellow data shard is down.
	alive = ec.AllAliveExcept(0, 5)
	got, err = c.ExecuteRepair(0, 256, alive, memFetch(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig[0]) {
		t.Fatal("fallback repair with dead data helper produced wrong bytes")
	}

	// And when the group's piggybacked parity is down.
	alive = ec.AllAliveExcept(0, 11) // group 0 piggyback lives on parity index 11
	got, err = c.ExecuteRepair(0, 256, alive, memFetch(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig[0]) {
		t.Fatal("fallback repair with dead piggyback parity produced wrong bytes")
	}
}

func TestPlanRepairErrors(t *testing.T) {
	c, _ := New(4, 2)
	if _, err := c.PlanRepair(6, 8, ec.AllAliveExcept(6)); !errors.Is(err, ec.ErrShardIndex) {
		t.Fatalf("bad index: got %v", err)
	}
	if _, err := c.PlanRepair(0, 7, ec.AllAliveExcept(0)); !errors.Is(err, ec.ErrShardSize) {
		t.Fatalf("odd size: got %v", err)
	}
	if _, err := c.PlanRepair(0, 8, ec.AllAliveExcept(1)); !errors.Is(err, ec.ErrShardPresent) {
		t.Fatalf("alive target: got %v", err)
	}
	if _, err := c.PlanRepair(0, 8, ec.AllAliveExcept(0, 1, 2)); !errors.Is(err, ec.ErrTooFewShards) {
		t.Fatalf("too few alive: got %v", err)
	}
}

func TestExecuteRepairFetchFailure(t *testing.T) {
	c, _ := New(4, 2)
	rng := rand.New(rand.NewSource(9))
	orig := randShards(rng, 4, 2, 32)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("network partition")
	_, err := c.ExecuteRepair(0, 32, ec.AllAliveExcept(0), func(ec.ReadRequest) ([]byte, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("fetch error not propagated: %v", err)
	}
	_, err = c.ExecuteRepair(0, 32, ec.AllAliveExcept(0), func(req ec.ReadRequest) ([]byte, error) {
		return make([]byte, req.Length-1), nil
	})
	if !errors.Is(err, ec.ErrShardSize) {
		t.Fatalf("short fetch: got %v", err)
	}
}

func TestCustomGroupsRepair(t *testing.T) {
	// A deliberately unbalanced grouping must still repair correctly
	// and cost (k+s)/2 per covered shard.
	c, err := New(6, 3, WithGroups([][]int{{0, 1, 2, 3, 4}, {5}}))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	orig := randShards(rng, 6, 3, 128)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	plan5, _ := c.PlanRepair(5, 128, ec.AllAliveExcept(5))
	if plan5.TotalBytes() != (6+1)*128/2 {
		t.Fatalf("singleton group repair cost %d, want %d", plan5.TotalBytes(), (6+1)*128/2)
	}
	plan0, _ := c.PlanRepair(0, 128, ec.AllAliveExcept(0))
	if plan0.TotalBytes() != (6+5)*128/2 {
		t.Fatalf("big group repair cost %d, want %d", plan0.TotalBytes(), (6+5)*128/2)
	}
	for idx := 0; idx < 9; idx++ {
		got, err := c.ExecuteRepair(idx, 128, ec.AllAliveExcept(idx), memFetch(orig))
		if err != nil {
			t.Fatalf("repair %d: %v", idx, err)
		}
		if !bytes.Equal(got, orig[idx]) {
			t.Fatalf("repair %d wrong bytes", idx)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(10)
		r := 2 + rng.Intn(4)
		size := 2 * (1 + rng.Intn(64))
		c, err := New(k, r)
		if err != nil {
			return false
		}
		orig := randShards(rng, k, r, size)
		if err := c.Encode(orig); err != nil {
			return false
		}
		// Random erasure of up to r shards, reconstruct, compare.
		work := cloneShards(orig)
		for _, e := range rng.Perm(k + r)[:1+rng.Intn(r)] {
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
		// Single-shard repair of a random shard.
		idx := rng.Intn(k + r)
		got, err := c.ExecuteRepair(idx, int64(size), ec.AllAliveExcept(idx), memFetch(orig))
		if err != nil {
			return false
		}
		return bytes.Equal(got, orig[idx])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRepairNeverReadsDeadShards(t *testing.T) {
	// Whatever the failure pattern, plans must only touch alive shards.
	c, _ := New(10, 4)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		down := rng.Perm(14)[:1+rng.Intn(4)]
		alive := ec.AllAliveExcept(down...)
		idx := down[0]
		plan, err := c.PlanRepair(idx, 64, alive)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range plan.Reads {
			if !alive(r.Shard) {
				t.Fatalf("plan for %d with %v down reads dead shard %d", idx, down, r.Shard)
			}
			if r.Shard == idx {
				t.Fatal("plan reads the shard being repaired")
			}
		}
	}
}

func TestRepairFewerBytesButMoreSources(t *testing.T) {
	// §3.2: piggybacked repair connects to MORE nodes but moves FEWER
	// bytes. Check both directions against RS for the (10,4) code.
	c, _ := New(10, 4)
	const size = 1 << 20
	plan, err := c.PlanRepair(0, size, ec.AllAliveExcept(0))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Sources() <= 10 {
		t.Fatalf("piggybacked repair contacts %d sources, want > 10", plan.Sources())
	}
	if plan.TotalBytes() >= 10*size {
		t.Fatalf("piggybacked repair moves %d bytes, want < %d", plan.TotalBytes(), 10*size)
	}
	// Fellow group members serve both halves (a for the piggyback, b for
	// the substripe decode); everyone else serves a single half.
	if plan.MaxPerSource() != size {
		t.Fatalf("per-source max read %d, want %d (group members serve both halves)", plan.MaxPerSource(), size)
	}
	// A data source outside the group serves only its b-half.
	perSource := make(map[int]int64)
	for _, r := range plan.Reads {
		perSource[r.Shard] += r.Length
	}
	if perSource[9] != size/2 {
		t.Fatalf("non-member data source read %d, want %d", perSource[9], size/2)
	}
}
