package rs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/ec"
)

// randShards builds k random data shards plus r nil parity slots.
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

// forEachCombination invokes fn with every size-m subset of [0, n).
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

func TestNewValidation(t *testing.T) {
	cases := []struct{ k, r int }{{0, 1}, {1, 0}, {-1, 2}, {200, 100}}
	for _, c := range cases {
		if _, err := New(c.k, c.r); err == nil {
			t.Errorf("New(%d, %d) should fail", c.k, c.r)
		}
	}
	if _, err := New(252, 4); err != nil {
		t.Errorf("New(252, 4) should succeed at the field boundary: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	c, err := New(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.DataShards() != 10 || c.ParityShards() != 4 || c.TotalShards() != 14 {
		t.Fatal("wrong shard counts")
	}
	if c.Name() != "rs(10,4)" {
		t.Fatalf("Name() = %q", c.Name())
	}
	if c.MinShardSize() != 1 {
		t.Fatal("RS min shard size must be 1")
	}
	if got := c.StorageOverhead(); got != 1.4 {
		t.Fatalf("StorageOverhead() = %v, want 1.4 (the paper's (10,4) figure)", got)
	}
	cc, err := New(10, 4, WithCauchy())
	if err != nil {
		t.Fatal(err)
	}
	if cc.Name() != "rs-cauchy(10,4)" {
		t.Fatalf("Cauchy Name() = %q", cc.Name())
	}
}

func TestGeneratorSystematic(t *testing.T) {
	c, _ := New(6, 3)
	g := c.gen
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := byte(0)
			if i == j {
				want = 1
			}
			if g.At(i, j) != want {
				t.Fatalf("generator top block not identity at (%d,%d)", i, j)
			}
		}
	}
}

func TestEncodeAllocatesParity(t *testing.T) {
	c, _ := New(4, 2)
	rng := rand.New(rand.NewSource(1))
	shards := randShards(rng, 4, 2, 64)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 6; i++ {
		if len(shards[i]) != 64 {
			t.Fatalf("parity %d not allocated", i)
		}
	}
	ok, err := c.Verify(shards)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("freshly encoded stripe fails Verify")
	}
}

func TestEncodeValidation(t *testing.T) {
	c, _ := New(3, 2)
	if err := c.Encode(make([][]byte, 4)); !errors.Is(err, ec.ErrShardCount) {
		t.Fatalf("wrong count: got %v", err)
	}
	shards := [][]byte{{1}, nil, {3}, nil, nil}
	if err := c.Encode(shards); !errors.Is(err, ec.ErrShardSize) {
		t.Fatalf("missing data: got %v", err)
	}
	shards = [][]byte{{1}, {2, 2}, {3}, nil, nil}
	if err := c.Encode(shards); !errors.Is(err, ec.ErrShardSize) {
		t.Fatalf("ragged data: got %v", err)
	}
	shards = [][]byte{{1}, {2}, {3}, {0, 0}, nil}
	if err := c.Encode(shards); !errors.Is(err, ec.ErrShardSize) {
		t.Fatalf("wrong parity size: got %v", err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	c, _ := New(5, 3)
	rng := rand.New(rand.NewSource(2))
	shards := randShards(rng, 5, 3, 128)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	shards[6][17] ^= 0x40
	ok, err := c.Verify(shards)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Verify missed a corrupted parity byte")
	}
	shards[6][17] ^= 0x40
	shards[2][3] ^= 0x01
	ok, _ = c.Verify(shards)
	if ok {
		t.Fatal("Verify missed a corrupted data byte")
	}
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	// Exhaustive MDS check for small codes: every erasure pattern of
	// size <= r must be recoverable exactly.
	for _, p := range []struct{ k, r int }{{2, 2}, {4, 2}, {5, 3}} {
		c, err := New(p.k, p.r)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(p.k*100 + p.r)))
		orig := randShards(rng, p.k, p.r, 48)
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

func TestReconstructFacebookParameters(t *testing.T) {
	// The production (10,4) code: random 4-erasure patterns.
	c, err := New(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(104))
	orig := randShards(rng, 10, 4, 256)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(4)
		work := cloneShards(orig)
		for _, e := range rng.Perm(14)[:m] {
			work[e] = nil
		}
		if err := c.Reconstruct(work); err != nil {
			t.Fatal(err)
		}
		for i := range orig {
			if !bytes.Equal(work[i], orig[i]) {
				t.Fatalf("trial %d shard %d mismatch", trial, i)
			}
		}
	}
}

func TestReconstructBeyondToleranceFails(t *testing.T) {
	c, _ := New(4, 2)
	rng := rand.New(rand.NewSource(3))
	shards := randShards(rng, 4, 2, 16)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	for _, e := range []int{0, 2, 4} {
		shards[e] = nil
	}
	if err := c.Reconstruct(shards); !errors.Is(err, ec.ErrTooFewShards) {
		t.Fatalf("3 erasures in (4,2): got %v", err)
	}
}

func TestReconstructNoopWhenComplete(t *testing.T) {
	c, _ := New(3, 2)
	rng := rand.New(rand.NewSource(5))
	shards := randShards(rng, 3, 2, 8)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	saved := cloneShards(shards)
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], saved[i]) {
			t.Fatal("Reconstruct mutated a complete stripe")
		}
	}
}

func TestEncodeParityIntoMatchesEncode(t *testing.T) {
	c, _ := New(6, 3)
	rng := rand.New(rand.NewSource(6))
	shards := randShards(rng, 6, 3, 40)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 40)
	for j := 0; j < 3; j++ {
		if err := c.EncodeParityInto(shards[:6], j, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, shards[6+j]) {
			t.Fatalf("EncodeParityInto(%d) differs from Encode output", j)
		}
	}
	if err := c.EncodeParityInto(shards[:6], 3, dst); !errors.Is(err, ec.ErrShardIndex) {
		t.Fatalf("out-of-range parity: got %v", err)
	}
	if err := c.EncodeParityInto(shards[:5], 0, dst); !errors.Is(err, ec.ErrShardCount) {
		t.Fatalf("short data: got %v", err)
	}
}

func TestPlanRepairShape(t *testing.T) {
	c, _ := New(10, 4)
	const size = 256 << 10
	plan, err := c.PlanRepair(3, size, ec.AllAliveExcept(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Reads) != 10 {
		t.Fatalf("RS repair must read k=10 shards, got %d", len(plan.Reads))
	}
	if plan.TotalBytes() != 10*size {
		t.Fatalf("RS repair downloads %d bytes, want %d (k x shard): the paper's amplification", plan.TotalBytes(), 10*size)
	}
	if plan.Sources() != 10 {
		t.Fatalf("sources = %d, want 10", plan.Sources())
	}
	if plan.MaxPerSource() != size {
		t.Fatalf("per-source read = %d, want %d", plan.MaxPerSource(), size)
	}
	for _, r := range plan.Reads {
		if r.Shard == 3 {
			t.Fatal("plan reads the shard being repaired")
		}
		if r.Offset != 0 || r.Length != size {
			t.Fatal("RS reads must cover whole shards")
		}
	}
}

func TestPlanRepairErrors(t *testing.T) {
	c, _ := New(4, 2)
	if _, err := c.PlanRepair(9, 10, ec.AllAliveExcept(9)); !errors.Is(err, ec.ErrShardIndex) {
		t.Fatalf("bad index: got %v", err)
	}
	if _, err := c.PlanRepair(1, 10, ec.AllAliveExcept(0)); !errors.Is(err, ec.ErrShardPresent) {
		t.Fatalf("alive target: got %v", err)
	}
	if _, err := c.PlanRepair(1, 0, ec.AllAliveExcept(1)); !errors.Is(err, ec.ErrShardSize) {
		t.Fatalf("zero size: got %v", err)
	}
	if _, err := c.PlanRepair(0, 10, ec.AllAliveExcept(0, 1, 2)); !errors.Is(err, ec.ErrTooFewShards) {
		t.Fatalf("too few alive: got %v", err)
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
		fetch := func(req ec.ReadRequest) ([]byte, error) {
			s := orig[req.Shard]
			return append([]byte(nil), s[req.Offset:req.Offset+req.Length]...), nil
		}
		got, err := c.ExecuteRepair(idx, 512, ec.AllAliveExcept(idx), fetch)
		if err != nil {
			t.Fatalf("repair %d: %v", idx, err)
		}
		if !bytes.Equal(got, orig[idx]) {
			t.Fatalf("repair %d produced wrong bytes", idx)
		}
	}
}

func TestExecuteRepairWithExtraFailures(t *testing.T) {
	// Repair shard 0 while shards 5 and 12 are also down: the plan must
	// route around them.
	c, _ := New(10, 4)
	rng := rand.New(rand.NewSource(8))
	orig := randShards(rng, 10, 4, 64)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	alive := ec.AllAliveExcept(0, 5, 12)
	fetch := func(req ec.ReadRequest) ([]byte, error) {
		if req.Shard == 0 || req.Shard == 5 || req.Shard == 12 {
			return nil, fmt.Errorf("shard %d is down", req.Shard)
		}
		return orig[req.Shard], nil
	}
	got, err := c.ExecuteRepair(0, 64, alive, fetch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig[0]) {
		t.Fatal("repair under concurrent failures produced wrong bytes")
	}
}

func TestExecuteRepairFetchErrors(t *testing.T) {
	c, _ := New(4, 2)
	rng := rand.New(rand.NewSource(9))
	orig := randShards(rng, 4, 2, 32)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	_, err := c.ExecuteRepair(1, 32, ec.AllAliveExcept(1), func(ec.ReadRequest) ([]byte, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("fetch error not propagated: %v", err)
	}
	_, err = c.ExecuteRepair(1, 32, ec.AllAliveExcept(1), func(req ec.ReadRequest) ([]byte, error) {
		return orig[req.Shard][:16], nil
	})
	if !errors.Is(err, ec.ErrShardSize) {
		t.Fatalf("short fetch: got %v", err)
	}
}

func TestCauchyRoundTrip(t *testing.T) {
	c, err := New(10, 4, WithCauchy())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	orig := randShards(rng, 10, 4, 96)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		work := cloneShards(orig)
		for _, e := range rng.Perm(14)[:4] {
			work[e] = nil
		}
		if err := c.Reconstruct(work); err != nil {
			t.Fatal(err)
		}
		for i := range orig {
			if !bytes.Equal(work[i], orig[i]) {
				t.Fatalf("cauchy trial %d shard %d mismatch", trial, i)
			}
		}
	}
}

func TestConcurrentReconstruct(t *testing.T) {
	// The decode-matrix cache must be safe under concurrent use.
	c, _ := New(10, 4)
	rng := rand.New(rand.NewSource(11))
	orig := randShards(rng, 10, 4, 128)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 20; trial++ {
				work := cloneShards(orig)
				for _, e := range r.Perm(14)[:1+r.Intn(4)] {
					work[e] = nil
				}
				if err := c.Reconstruct(work); err != nil {
					errCh <- err
					return
				}
				for i := range orig {
					if !bytes.Equal(work[i], orig[i]) {
						errCh <- fmt.Errorf("shard %d mismatch", i)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: for random parameters, data, and erasure patterns of
	// size <= r, decode inverts encode.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(12)
		r := 1 + rng.Intn(6)
		size := 1 + rng.Intn(100)
		c, err := New(k, r)
		if err != nil {
			return false
		}
		orig := randShards(rng, k, r, size)
		if err := c.Encode(orig); err != nil {
			return false
		}
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
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestParityRowBounds(t *testing.T) {
	c, _ := New(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("ParityRow out of range did not panic")
		}
	}()
	c.ParityRow(2)
}

func TestRepairFractionRS(t *testing.T) {
	// For RS every single-shard repair downloads exactly k shards:
	// fraction 1.0 of the stripe's data size, no savings anywhere.
	c, _ := New(10, 4)
	per, avg, err := ec.RepairFraction(c, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range per {
		if f != 1.0 {
			t.Fatalf("shard %d repair fraction %v, want 1.0", i, f)
		}
	}
	if avg != 1.0 {
		t.Fatalf("average repair fraction %v, want 1.0", avg)
	}
}
