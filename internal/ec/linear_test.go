package ec_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/lrc"
	"repro/internal/rs"
)

// linearCodec is one codec construction of the executor property test
// with the erasure count it is guaranteed to survive.
type linearCodec struct {
	code      ec.Code
	tolerance int
}

// linearCodecs returns codec constructions spanning the repair paths:
// plain RS, piggybacked (default, Cauchy, custom groups, and r == 2
// with ungrouped shards), and LRC.
func linearCodecs(t *testing.T) []linearCodec {
	t.Helper()
	must := func(code ec.Code, err error) ec.Code {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return code
	}
	rsCode := func(c *rs.Code, err error) (ec.Code, error) { return c, err }
	pbCode := func(c *core.Code, err error) (ec.Code, error) { return c, err }
	lrcCode := func(c *lrc.Code, err error) (ec.Code, error) { return c, err }
	return []linearCodec{
		{must(rsCode(rs.New(10, 4))), 4},
		{must(rsCode(rs.New(4, 2))), 2},
		{must(rsCode(rs.New(6, 3, rs.WithCauchy()))), 3},
		{must(pbCode(core.New(10, 4))), 4},
		// r == 2 leaves data shards 2 and 3 ungrouped: exercises the
		// whole-shard fallback even for single data failures.
		{must(pbCode(core.New(4, 2))), 2},
		{must(pbCode(core.New(6, 3))), 3},
		// Uneven custom groups, one shard left ungrouped.
		{must(pbCode(core.New(6, 3, core.WithGroups([][]int{{5, 0, 2}, {3}})))), 3},
		{must(lrcCode(lrc.New(10, 4, 2))), 4},
		{must(lrcCode(lrc.New(4, 2, 2))), 2},
		{must(lrcCode(lrc.New(6, 3, 3, rs.WithCauchy()))), 3},
	}
}

// encodeRandomStripe builds one valid random stripe for the codec. The
// last zeroTail data shards are all-zero, the way HDFS-RAID pads a short
// tail stripe with phantom blocks.
func encodeRandomStripe(t *testing.T, code ec.Code, rng *rand.Rand, shardSize, zeroTail int) [][]byte {
	t.Helper()
	shards := make([][]byte, code.TotalShards())
	for i := 0; i < code.DataShards(); i++ {
		shards[i] = make([]byte, shardSize)
		if i < code.DataShards()-zeroTail {
			rng.Read(shards[i])
		}
	}
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	return shards
}

func memFetch(shards [][]byte) ec.FetchFunc {
	return func(req ec.ReadRequest) ([]byte, error) {
		return append([]byte(nil), shards[req.Shard][req.Offset:req.Offset+req.Length]...), nil
	}
}

// forEachSubset calls fn with every subset of pool of size <= max.
func forEachSubset(pool []int, max int, fn func(sub []int)) {
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		fn(cur)
		if len(cur) == max {
			return
		}
		for i := start; i < len(pool); i++ {
			rec(i+1, append(cur, pool[i]))
		}
	}
	rec(0, nil)
}

// TestExecutorMatchesReconstruct is the contract of the fused repair
// executor, shared by every codec: for every target, every pattern of
// further failures up to the code's tolerance, at odd and even shard
// sizes, on a random stripe and on one with phantom all-zero shards,
// ExecuteRepair (one evaluation of the linear plan) returns byte for
// byte what the generic Reconstruct decode returns, and fetches exactly
// the bytes PlanRepair charges for — each byte once, touching ranges of
// one helper possibly as one request. Before the executor was the
// production path this pinned "linear plan == ExecuteRepair"; that is
// now a tautology, so the anchor is the independent decode.
func TestExecutorMatchesReconstruct(t *testing.T) {
	for _, lc := range linearCodecs(t) {
		code := lc.code
		t.Run(code.Name(), func(t *testing.T) {
			lp, ok := code.(ec.LinearRepairPlanner)
			if !ok {
				t.Fatalf("%s does not implement LinearRepairPlanner", code.Name())
			}
			total := code.TotalShards()
			rng := rand.New(rand.NewSource(7))
			for _, shardSize := range []int{7, 64} {
				if shardSize%code.MinShardSize() != 0 {
					// An unaligned size is refused on every path.
					alive := ec.AllAliveExcept(0)
					if _, err := code.ExecuteRepair(0, int64(shardSize), alive, nil); !errors.Is(err, ec.ErrShardSize) {
						t.Fatalf("size %d: ExecuteRepair: %v, want ErrShardSize", shardSize, err)
					}
					if _, err := lp.PlanLinearRepair(0, int64(shardSize), alive); !errors.Is(err, ec.ErrShardSize) {
						t.Fatalf("size %d: PlanLinearRepair: %v, want ErrShardSize", shardSize, err)
					}
					shardSize++
				}
				for _, zeroTail := range []int{0, code.DataShards() / 2} {
					shards := encodeRandomStripe(t, code, rng, shardSize, zeroTail)
					for idx := 0; idx < total; idx++ {
						others := make([]int, 0, total-1)
						for i := 0; i < total; i++ {
							if i != idx {
								others = append(others, i)
							}
						}
						forEachSubset(others, lc.tolerance-1, func(extra []int) {
							down := append([]int{idx}, extra...)
							checkExecutor(t, code, lp, shards, idx, down)
						})
					}
				}
			}
		})
	}
}

// checkExecutor compares one repair against Reconstruct and PlanRepair.
func checkExecutor(t *testing.T, code ec.Code, lp ec.LinearRepairPlanner, shards [][]byte, idx int, down []int) {
	t.Helper()
	total, shardSize := code.TotalShards(), int64(len(shards[0]))
	alive := ec.AllAliveExcept(down...)

	work := make([][]byte, total)
	copy(work, shards)
	for _, d := range down {
		work[d] = nil
	}
	if err := code.Reconstruct(work); err != nil {
		t.Fatalf("idx %d down %v: Reconstruct within tolerance: %v", idx, down, err)
	}
	if !bytes.Equal(work[idx], shards[idx]) {
		t.Fatalf("idx %d down %v: Reconstruct differs from the original", idx, down)
	}

	plan, err := code.PlanRepair(idx, shardSize, alive)
	if err != nil {
		t.Fatalf("idx %d down %v: PlanRepair: %v", idx, down, err)
	}
	lin, err := lp.PlanLinearRepair(idx, shardSize, alive)
	if err != nil {
		t.Fatalf("idx %d down %v: PlanLinearRepair: %v", idx, down, err)
	}
	if err := ec.ValidateLinearPlan(lin, total, alive); err != nil {
		t.Fatalf("idx %d down %v: invalid linear plan: %v", idx, down, err)
	}

	// planned[shard][byte] counts how often the plan charges the byte;
	// every fetch must consume bytes the plan charged, each once.
	planned := make(map[int][]int, len(plan.Reads))
	for _, r := range plan.Reads {
		if planned[r.Shard] == nil {
			planned[r.Shard] = make([]int, shardSize)
		}
		for b := r.Offset; b < r.Offset+r.Length; b++ {
			planned[r.Shard][b]++
		}
	}
	var fetched int64
	got, err := code.ExecuteRepair(idx, shardSize, alive, func(req ec.ReadRequest) ([]byte, error) {
		for b := req.Offset; b < req.Offset+req.Length; b++ {
			if planned[req.Shard] == nil || planned[req.Shard][b] != 1 {
				t.Fatalf("idx %d down %v: fetch %+v outside the plan, or of a byte fetched before", idx, down, req)
			}
			planned[req.Shard][b]--
		}
		fetched += req.Length
		return memFetch(shards)(req)
	})
	if err != nil {
		t.Fatalf("idx %d down %v: ExecuteRepair: %v", idx, down, err)
	}
	if !bytes.Equal(got, work[idx]) {
		t.Fatalf("idx %d down %v: executor differs from Reconstruct", idx, down)
	}
	if fetched != plan.TotalBytes() {
		t.Fatalf("idx %d down %v: fetched %d bytes, PlanRepair charges %d", idx, down, fetched, plan.TotalBytes())
	}
}

// TestLinearPlanReadsMatchPlanRepair pins what every codec's PlanRepair —
// the distinct reads of its linear plan — takes from each shard to the
// table in testdata/plan_bytes.golden. The table was captured while
// Piggybacked-RS still had a second, hand-written planner that listed
// its reads directly from the paper's three steps, so it is the
// independent statement of the bytes a repair moves: for every target,
// with every other shard alive and with each single further failure.
// The closed-form oracles (core's TheoreticalRepairFraction) and the
// Reconstruct decode (TestExecutorMatchesReconstruct) stay as the other
// references.
func TestLinearPlanReadsMatchPlanRepair(t *testing.T) {
	raw, err := os.ReadFile("testdata/plan_bytes.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if label, rest, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			want[label] = append(want[label], rest)
		}
	}
	for _, lc := range linearCodecs(t) {
		code := lc.code
		t.Run(code.Name(), func(t *testing.T) {
			_, label, _ := strings.Cut(t.Name(), "/")
			got := planBytes(t, code)
			if len(got) != len(want[label]) {
				t.Fatalf("%d cases, golden has %d", len(got), len(want[label]))
			}
			for i := range got {
				if got[i] != want[label][i] {
					t.Errorf("target, further failure, bytes per shard: %s, golden %s", got[i], want[label][i])
				}
			}
		})
	}
}

// planBytes renders one line per repair case — target, further failed
// shard (-1 for none), and the bytes PlanRepair reads from each shard at
// shard size 2, one digit per shard — or "refused" where too few shards
// survive.
func planBytes(t *testing.T, code ec.Code) []string {
	t.Helper()
	total := code.TotalShards()
	var lines []string
	for idx := 0; idx < total; idx++ {
		for extra := -1; extra < total; extra++ {
			if extra == idx {
				continue
			}
			line := fmt.Sprintf("%d %d ", idx, extra)
			plan, err := code.PlanRepair(idx, 2, ec.AllAliveExcept(idx, extra))
			if errors.Is(err, ec.ErrTooFewShards) {
				lines = append(lines, line+"refused")
				continue
			}
			if err != nil {
				t.Fatalf("target %d, %d down: %v", idx, extra, err)
			}
			per := bytes.Repeat([]byte{'0'}, total)
			for _, r := range plan.Reads {
				per[r.Shard] += byte(r.Length)
			}
			lines = append(lines, line+string(per))
		}
	}
	return lines
}

// viewFetch serves requests as views of the stripe, the way a pooled
// FetchInto-style fetch hands out recycled memory: no allocation of its
// own, so AllocsPerRun sees only the executor.
func viewFetch(shards [][]byte) ec.FetchFunc {
	return func(req ec.ReadRequest) ([]byte, error) {
		return shards[req.Shard][req.Offset : req.Offset+req.Length], nil
	}
}

// TestExecutorRejectsWrongLengthFetch: a short or long fetch is
// ErrShardSize from every codec and both plan shapes — before the
// executor validated lengths, a wrong-size buffer reaching the fused
// kernel panicked.
func TestExecutorRejectsWrongLengthFetch(t *testing.T) {
	const shardSize = 64
	for _, lc := range linearCodecs(t) {
		code := lc.code
		shards := encodeRandomStripe(t, code, rand.New(rand.NewSource(3)), shardSize, 0)
		for _, tc := range []struct {
			name  string
			delta int64
		}{{"short", -1}, {"long", +1}, {"empty", -shardSize}} {
			for _, idx := range []int{0, code.TotalShards() - 1} {
				calls := 0
				_, err := code.ExecuteRepair(idx, shardSize, ec.AllAliveExcept(idx), func(req ec.ReadRequest) ([]byte, error) {
					calls++
					if calls != 2 { // every fetch but the second is honest
						return viewFetch(shards)(req)
					}
					n := req.Length + tc.delta
					if n < 0 {
						n = 0
					}
					return make([]byte, n), nil
				})
				if !errors.Is(err, ec.ErrShardSize) {
					t.Errorf("%s %s fetch, target %d: got %v, want ErrShardSize", code.Name(), tc.name, idx, err)
				}
			}
		}
	}
}

// TestRepairFollowsTheAliveSet: a repair is planned from the alive set
// it is given, so the cheap plan of a healthy stripe never serves a
// stripe with a further helper down. Repairs of one target alternate
// between failure patterns on one codec instance, from several
// goroutines (run under -race); each must decode correctly and never
// fetch a dead shard.
func TestRepairFollowsTheAliveSet(t *testing.T) {
	const shardSize = 32
	for _, lc := range linearCodecs(t) {
		code := lc.code
		shards := encodeRandomStripe(t, code, rand.New(rand.NewSource(11)), shardSize, 0)
		// Target 0 alone, then with each other shard down as well: for the
		// piggybacked and local codes the second kind falls off the cheap
		// plan.
		patterns := [][]int{{0}}
		for extra := 1; extra < code.TotalShards() && lc.tolerance > 1; extra++ {
			patterns = append(patterns, []int{0, extra})
		}
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			go func() {
				for round := 0; round < 3; round++ {
					for i := range patterns {
						down := patterns[(i+g)%len(patterns)]
						got, err := code.ExecuteRepair(0, shardSize, ec.AllAliveExcept(down...), func(req ec.ReadRequest) ([]byte, error) {
							for _, d := range down {
								if req.Shard == d {
									return nil, fmt.Errorf("fetch of dead shard %d with %v down", d, down)
								}
							}
							return viewFetch(shards)(req)
						})
						if err == nil && !bytes.Equal(got, shards[0]) {
							err = fmt.Errorf("wrong bytes with %v down", down)
						}
						if err != nil {
							errs <- fmt.Errorf("%s: %w", code.Name(), err)
							return
						}
					}
				}
				errs <- nil
			}()
		}
		for g := 0; g < 4; g++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}
}

// TestExecuteRepairAllocations pins the executor's steady state: with a
// fetch that hands out views (no allocation of its own), evaluating a
// plan allocates the output shard and a fixed handful of small slices —
// the same count for a 10-term RS plan and a 30-term piggybacked parity
// plan, so nothing is allocated per term. A whole ExecuteRepair adds the
// plan's derivation: a few dozen small objects whose size follows the
// stripe's width, never the shard's.
func TestExecuteRepairAllocations(t *testing.T) {
	const shardSize, evalCeiling, repairCeiling = 4096, 6, 36
	for _, lc := range linearCodecs(t) {
		code := lc.code
		shards := encodeRandomStripe(t, code, rand.New(rand.NewSource(5)), shardSize, 0)
		fetch := viewFetch(shards)
		for _, idx := range []int{0, code.TotalShards() - 1} {
			alive := ec.AllAliveExcept(idx)
			plan, err := code.(ec.LinearRepairPlanner).PlanLinearRepair(idx, shardSize, alive)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := ec.EvaluateLinearPlan(plan, fetch); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > evalCeiling {
				t.Errorf("%s target %d: %.0f allocations per plan evaluation, ceiling %d", code.Name(), idx, allocs, evalCeiling)
			}
			allocs = testing.AllocsPerRun(50, func() {
				if _, err := code.ExecuteRepair(idx, shardSize, alive, fetch); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > repairCeiling {
				t.Errorf("%s target %d: %.0f allocations per repair, ceiling %d", code.Name(), idx, allocs, repairCeiling)
			}
		}
	}
}
