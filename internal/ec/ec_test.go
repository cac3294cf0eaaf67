package ec

import (
	"errors"
	"fmt"
	"testing"
)

func TestRepairPlanAccounting(t *testing.T) {
	p := &RepairPlan{
		Shard:     0,
		ShardSize: 100,
		Reads: []ReadRequest{
			{Shard: 1, Offset: 0, Length: 50},
			{Shard: 1, Offset: 50, Length: 50},
			{Shard: 2, Offset: 50, Length: 50},
			{Shard: 3, Offset: 0, Length: 25},
		},
	}
	if got := p.TotalBytes(); got != 175 {
		t.Fatalf("TotalBytes = %d, want 175", got)
	}
	if got := p.Sources(); got != 3 {
		t.Fatalf("Sources = %d, want 3", got)
	}
	if got := p.MaxPerSource(); got != 100 {
		t.Fatalf("MaxPerSource = %d, want 100", got)
	}
}

func TestEmptyPlan(t *testing.T) {
	p := &RepairPlan{Shard: 1, ShardSize: 10}
	if p.TotalBytes() != 0 || p.Sources() != 0 || p.MaxPerSource() != 0 {
		t.Fatal("empty plan must account to zeros")
	}
}

func TestAllAliveExcept(t *testing.T) {
	alive := AllAliveExcept(2, 5)
	for i := 0; i < 8; i++ {
		want := i != 2 && i != 5
		if alive(i) != want {
			t.Fatalf("alive(%d) = %v, want %v", i, alive(i), want)
		}
	}
	all := AllAliveExcept()
	if !all(0) || !all(100) {
		t.Fatal("AllAliveExcept() must report everything alive")
	}
}

func TestCheckShards(t *testing.T) {
	shards := [][]byte{{1, 2}, {3, 4}, {5, 6}}
	size, err := CheckShards(shards, 3, false)
	if err != nil || size != 2 {
		t.Fatalf("CheckShards = (%d, %v), want (2, nil)", size, err)
	}

	if _, err := CheckShards(shards, 4, false); !errors.Is(err, ErrShardCount) {
		t.Fatalf("count mismatch: got %v", err)
	}

	withNil := [][]byte{{1, 2}, nil, {5, 6}}
	if _, err := CheckShards(withNil, 3, false); !errors.Is(err, ErrShardSize) {
		t.Fatalf("nil disallowed: got %v", err)
	}
	size, err = CheckShards(withNil, 3, true)
	if err != nil || size != 2 {
		t.Fatalf("nil allowed: got (%d, %v)", size, err)
	}

	ragged := [][]byte{{1, 2}, {3}}
	if _, err := CheckShards(ragged, 2, true); !errors.Is(err, ErrShardSize) {
		t.Fatalf("ragged: got %v", err)
	}

	empty := [][]byte{{}}
	if _, err := CheckShards(empty, 1, true); !errors.Is(err, ErrShardSize) {
		t.Fatalf("empty shard: got %v", err)
	}

	allNil := make([][]byte, 3)
	if _, err := CheckShards(allNil, 3, true); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("all nil: got %v", err)
	}
}

func TestCountPresentAndMissing(t *testing.T) {
	shards := [][]byte{{1}, nil, {2}, nil, nil}
	if got := CountPresent(shards); got != 2 {
		t.Fatalf("CountPresent = %d, want 2", got)
	}
	missing := MissingIndices(shards)
	want := []int{1, 3, 4}
	if len(missing) != len(want) {
		t.Fatalf("MissingIndices = %v, want %v", missing, want)
	}
	for i := range want {
		if missing[i] != want[i] {
			t.Fatalf("MissingIndices = %v, want %v", missing, want)
		}
	}
}

// ValidatePlan checks the structural invariants every repair plan must
// satisfy: the repaired shard in range, every read within the shard
// bounds with positive length, sources alive, the repaired shard never
// read, and no duplicate ranges. Codec property tests run all plans
// through it.
func ValidatePlan(plan *RepairPlan, total int, alive AliveFunc) error {
	if plan == nil {
		return errors.New("ec: nil plan")
	}
	if plan.Shard < 0 || plan.Shard >= total {
		return fmt.Errorf("%w: plan target %d of %d", ErrShardIndex, plan.Shard, total)
	}
	if plan.ShardSize <= 0 {
		return fmt.Errorf("%w: plan shard size %d", ErrShardSize, plan.ShardSize)
	}
	type span struct {
		shard    int
		off, len int64
	}
	seen := make(map[span]bool, len(plan.Reads))
	for _, r := range plan.Reads {
		if r.Shard < 0 || r.Shard >= total {
			return fmt.Errorf("%w: read of shard %d", ErrShardIndex, r.Shard)
		}
		if r.Shard == plan.Shard {
			return fmt.Errorf("%w: plan reads its own target %d", ErrShardIndex, r.Shard)
		}
		if !alive(r.Shard) {
			return fmt.Errorf("ec: plan reads dead shard %d", r.Shard)
		}
		if r.Length <= 0 || r.Offset < 0 || r.Offset+r.Length > plan.ShardSize {
			return fmt.Errorf("%w: read [%d, %d) of %d-byte shard", ErrShardSize, r.Offset, r.Offset+r.Length, plan.ShardSize)
		}
		s := span{r.Shard, r.Offset, r.Length}
		if seen[s] {
			return fmt.Errorf("ec: duplicate read %+v", s)
		}
		seen[s] = true
	}
	return nil
}

// ValidateLinearPlan checks the structural invariants of a linear plan:
// target in range, every term's read within shard bounds and alive,
// never reading the target itself, fold destinations within the target,
// and no zero coefficients (planners drop them).
func ValidateLinearPlan(plan *LinearPlan, total int, alive AliveFunc) error {
	if plan == nil {
		return errors.New("ec: nil linear plan")
	}
	if plan.Shard < 0 || plan.Shard >= total {
		return fmt.Errorf("%w: plan target %d of %d", ErrShardIndex, plan.Shard, total)
	}
	if plan.ShardSize <= 0 {
		return fmt.Errorf("%w: plan shard size %d", ErrShardSize, plan.ShardSize)
	}
	for _, t := range plan.Terms {
		r := t.Read
		if r.Shard < 0 || r.Shard >= total {
			return fmt.Errorf("%w: term reads shard %d", ErrShardIndex, r.Shard)
		}
		if r.Shard == plan.Shard {
			return fmt.Errorf("%w: term reads its own target %d", ErrShardIndex, r.Shard)
		}
		if !alive(r.Shard) {
			return fmt.Errorf("ec: term reads dead shard %d", r.Shard)
		}
		if err := t.CheckBounds(plan.ShardSize); err != nil {
			return err
		}
		if t.Coeff == 0 {
			return errors.New("ec: zero-coefficient term")
		}
	}
	return nil
}
