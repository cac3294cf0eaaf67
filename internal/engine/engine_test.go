package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/lrc"
	"repro/internal/rs"
	"repro/internal/telemetry"
)

// testCodecs returns one instance of each codec family at the paper's
// production parameters.
func testCodecs(t testing.TB) []ec.Code {
	t.Helper()
	rsc, err := rs.New(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := core.New(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := lrc.New(10, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []ec.Code{rsc, pb, lc}
}

// stripe is one encoded stripe plus the failure pattern applied to it.
type stripe struct {
	shards  [][]byte
	missing []int
}

// buildStripes encodes n stripes of the codec with varied failure
// patterns: single data, single parity, double, and triple losses.
func buildStripes(t testing.TB, code ec.Code, n, shardSize int, seed int64) []stripe {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	total := code.TotalShards()
	patterns := [][]int{
		{0},
		{total - 1},
		{1, total - 2},
		{2, 5, total - 1},
		{code.DataShards() - 1},
	}
	out := make([]stripe, n)
	for i := range out {
		shards := make([][]byte, total)
		for d := 0; d < code.DataShards(); d++ {
			shards[d] = make([]byte, shardSize)
			rng.Read(shards[d])
		}
		if err := code.Encode(shards); err != nil {
			t.Fatal(err)
		}
		out[i] = stripe{shards: shards, missing: patterns[i%len(patterns)]}
	}
	return out
}

// fetchFrom serves planned reads from the stripe's surviving shards.
func fetchFrom(shards [][]byte) ec.FetchFunc {
	return func(req ec.ReadRequest) ([]byte, error) {
		return shards[req.Shard][req.Offset : req.Offset+req.Length], nil
	}
}

// fetchIntoFrom is the buffer-reusing variant of fetchFrom.
func fetchIntoFrom(shards [][]byte) FetchIntoFunc {
	return func(req ec.ReadRequest, dst []byte) error {
		copy(dst, shards[req.Shard][req.Offset:req.Offset+req.Length])
		return nil
	}
}

// serialRepairs computes the expected outputs with plain codec calls.
func serialRepairs(t testing.TB, code ec.Code, stripes []stripe) []map[int][]byte {
	t.Helper()
	out := make([]map[int][]byte, len(stripes))
	for i, st := range stripes {
		got, err := code.ExecuteMultiRepair(st.missing, int64(len(st.shards[0])),
			ec.AllAliveExcept(st.missing...), fetchFrom(st.shards))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = got
	}
	return out
}

// TestEngineRepairParity asserts engine-parallel repair output is
// byte-identical to serial repair for RS, Piggybacked-RS, and LRC
// across parallelism 1, 4, and GOMAXPROCS, with both fetch styles.
func TestEngineRepairParity(t *testing.T) {
	const shardSize = 4 << 10
	parallelisms := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, code := range testCodecs(t) {
		stripes := buildStripes(t, code, 25, shardSize, 17)
		want := serialRepairs(t, code, stripes)
		for _, par := range parallelisms {
			for _, pooled := range []bool{false, true} {
				name := fmt.Sprintf("%s/par=%d/pooled=%v", code.Name(), par, pooled)
				t.Run(name, func(t *testing.T) {
					eng := New(Options{Parallelism: par})
					jobs := make([]RepairJob, len(stripes))
					for i, st := range stripes {
						jobs[i] = RepairJob{
							Code:      code,
							Missing:   st.missing,
							ShardSize: shardSize,
							Alive:     ec.AllAliveExcept(st.missing...),
						}
						if pooled {
							jobs[i].FetchInto = fetchIntoFrom(st.shards)
						} else {
							jobs[i].Fetch = fetchFrom(st.shards)
						}
					}
					results := eng.RunRepairs(jobs)
					for i, res := range results {
						if res.Err != nil {
							t.Fatalf("job %d: %v", i, res.Err)
						}
						if len(res.Shards) != len(want[i]) {
							t.Fatalf("job %d: repaired %d shards, want %d", i, len(res.Shards), len(want[i]))
						}
						for idx, shard := range res.Shards {
							if !bytes.Equal(shard, want[i][idx]) {
								t.Fatalf("job %d shard %d differs from serial repair", i, idx)
							}
							if !bytes.Equal(shard, stripes[i].shards[idx]) {
								t.Fatalf("job %d shard %d differs from original content", i, idx)
							}
						}
					}
				})
			}
		}
	}
}

// TestEngineEncodeParity asserts encodes run as RunTasks tasks — the
// way the fixer batches stripe work — write the same parity bytes as
// serial Encode for every codec, each result in its task's slot.
func TestEngineEncodeParity(t *testing.T) {
	const shardSize = 4 << 10
	for _, code := range testCodecs(t) {
		t.Run(code.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			const n = 16
			serial := make([][][]byte, n)
			viaEngine := make([][][]byte, n)
			tasks := make([]func(*Scratch) error, n)
			for i := 0; i < n; i++ {
				data := make([][]byte, code.TotalShards())
				for d := 0; d < code.DataShards(); d++ {
					data[d] = make([]byte, shardSize)
					rng.Read(data[d])
				}
				stripe := make([][]byte, len(data))
				for j, s := range data {
					stripe[j] = append([]byte(nil), s...)
				}
				serial[i], viaEngine[i] = data, stripe
				tasks[i] = func(*Scratch) error { return code.Encode(stripe) }
			}
			for i, err := range New(Options{Parallelism: 4}).RunTasks(tasks) {
				if err != nil {
					t.Fatalf("encode task %d: %v", i, err)
				}
			}
			for i := 0; i < n; i++ {
				if err := code.Encode(serial[i]); err != nil {
					t.Fatal(err)
				}
				for j := range serial[i] {
					if !bytes.Equal(serial[i][j], viaEngine[i][j]) {
						t.Fatalf("stripe %d shard %d: engine encode differs from serial", i, j)
					}
				}
			}
		})
	}
}

// TestEngineErrorIsolation asserts a failing job does not affect the
// rest of the batch and that a job without a fetch callback errors.
func TestEngineErrorIsolation(t *testing.T) {
	code := testCodecs(t)[0]
	stripes := buildStripes(t, code, 6, 1024, 31)
	boom := errors.New("boom")
	eng := New(Options{Parallelism: 3})
	jobs := make([]RepairJob, len(stripes)+1)
	for i, st := range stripes {
		jobs[i] = RepairJob{
			Code:      code,
			Missing:   st.missing,
			ShardSize: 1024,
			Alive:     ec.AllAliveExcept(st.missing...),
			Fetch:     fetchFrom(st.shards),
		}
		if i == 2 {
			jobs[i].Fetch = func(ec.ReadRequest) ([]byte, error) { return nil, boom }
		}
	}
	// Final job: no fetch callback at all.
	jobs[len(stripes)] = RepairJob{
		Code: code, Missing: []int{0}, ShardSize: 1024,
		Alive: ec.AllAliveExcept(0),
	}
	results := eng.RunRepairs(jobs)
	for i, res := range results {
		switch i {
		case 2:
			if !errors.Is(res.Err, boom) {
				t.Fatalf("job 2: got err %v, want wrapped boom", res.Err)
			}
		case len(stripes):
			if !errors.Is(res.Err, errNoFetch) {
				t.Fatalf("fetchless job: got err %v, want errNoFetch", res.Err)
			}
		default:
			if res.Err != nil {
				t.Fatalf("job %d: unexpected error %v", i, res.Err)
			}
			for idx, shard := range res.Shards {
				if !bytes.Equal(shard, stripes[i].shards[idx]) {
					t.Fatalf("job %d shard %d corrupted", i, idx)
				}
			}
		}
	}
}

// TestEngineRaceStress hammers one shared engine and shared codecs from
// a wide batch with pooled buffers — the test the CI race job runs.
func TestEngineRaceStress(t *testing.T) {
	const shardSize = 512
	eng := New(Options{Parallelism: 8})
	var jobs []RepairJob
	var expect []stripe
	for _, code := range testCodecs(t) {
		stripes := buildStripes(t, code, 40, shardSize, 41)
		for _, st := range stripes {
			jobs = append(jobs, RepairJob{
				Code:      code,
				Missing:   st.missing,
				ShardSize: shardSize,
				Alive:     ec.AllAliveExcept(st.missing...),
				FetchInto: fetchIntoFrom(st.shards),
			})
			expect = append(expect, st)
		}
	}
	for round := 0; round < 3; round++ {
		results := eng.RunRepairs(jobs)
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("round %d job %d: %v", round, i, res.Err)
			}
			for idx, shard := range res.Shards {
				if !bytes.Equal(shard, expect[i].shards[idx]) {
					t.Fatalf("round %d job %d shard %d corrupted", round, i, idx)
				}
			}
		}
	}
}

// TestScratchReuse checks the arena actually recycles buffers.
func TestScratchReuse(t *testing.T) {
	var s Scratch
	a := s.Bytes(100)
	s.Reset()
	b := s.Bytes(64)
	if &a[0] != &b[0] {
		t.Fatal("scratch did not reuse a large-enough buffer")
	}
	c := s.Bytes(200)
	if len(c) != 200 {
		t.Fatalf("got %d bytes, want 200", len(c))
	}
}

func TestEngineDefaults(t *testing.T) {
	e := New(Options{})
	if e.Parallelism() != runtime.GOMAXPROCS(0) {
		t.Fatalf("default parallelism %d, want GOMAXPROCS=%d", e.Parallelism(), runtime.GOMAXPROCS(0))
	}
	if got := e.RunRepairs(nil); len(got) != 0 {
		t.Fatal("empty batch must yield empty results")
	}
}

// TestPooledBuffersNeverEscape is the lifetime contract of the pooled
// fetch path: what RunRepairs and RunTasks hand back is the caller's
// own. A repaired shard — single and multi-shard patterns of every
// codec — must be unchanged after 100 further repairs of different
// stripes on the same worker (one worker, so every job recycles the one
// arena), must share no memory with that arena, and survives the caller
// scribbling over its own copy of another result.
func TestPooledBuffersNeverEscape(t *testing.T) {
	const shardSize = 1 << 10
	for _, code := range testCodecs(t) {
		eng := New(Options{Parallelism: 1})
		stripes := buildStripes(t, code, 105, shardSize, 23)
		job := func(st stripe) RepairJob {
			return RepairJob{
				Code: code, Missing: st.missing, ShardSize: shardSize,
				Alive: ec.AllAliveExcept(st.missing...), FetchInto: fetchIntoFrom(st.shards),
			}
		}
		// The first five stripes cover every failure pattern.
		first := make([]RepairJob, 5)
		for i := range first {
			first[i] = job(stripes[i])
		}
		kept := eng.RunRepairs(first)
		for round := 5; round < len(stripes); round++ {
			res := eng.RunRepairs([]RepairJob{job(stripes[round])})
			if res[0].Err != nil {
				t.Fatalf("%s round %d: %v", code.Name(), round, res[0].Err)
			}
			for _, shard := range res[0].Shards {
				for i := range shard {
					shard[i] = 0xAA // the caller owns it: scribbling must hurt no one
				}
			}
		}
		arena := eng.scratch.Get().(*Scratch)
		for i, res := range kept {
			if res.Err != nil {
				t.Fatalf("%s job %d: %v", code.Name(), i, res.Err)
			}
			for idx, shard := range res.Shards {
				if !bytes.Equal(shard, stripes[i].shards[idx]) {
					t.Fatalf("%s job %d shard %d changed after 100 further repairs on its worker", code.Name(), i, idx)
				}
				for _, buf := range arena.bufs {
					if cap(buf) > 0 && cap(shard) > 0 && &buf[:1][0] == &shard[:1][0] {
						t.Fatalf("%s job %d shard %d is a pooled buffer", code.Name(), i, idx)
					}
				}
			}
		}
	}
}

// TestRunTasksHandsOutTheWorkerArena: a task draws its buffers from the
// worker's scratch, the arena is reset between tasks (so a batch of any
// length on one worker reuses the first task's buffers), and the
// hit/miss instruments see it.
func TestRunTasksHandsOutTheWorkerArena(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng := New(Options{Parallelism: 1, Telemetry: reg})
	var first *byte
	tasks := make([]func(*Scratch) error, 50)
	for i := range tasks {
		i := i
		tasks[i] = func(s *Scratch) error {
			a, b := s.Bytes(4096), s.Bytes(4096)
			if &a[0] == &b[0] {
				return errors.New("one task got the same buffer twice")
			}
			if i == 0 {
				first = &a[0]
			} else if &a[0] != first {
				return fmt.Errorf("task %d did not reuse the arena", i)
			}
			return nil
		}
	}
	for i, err := range eng.RunTasks(tasks) {
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	snap := reg.Snapshot()
	hits, misses := snap.Counters["engine_scratch_hits_total"], snap.Counters["engine_scratch_misses_total"]
	if misses != 2 || hits != 98 {
		t.Fatalf("scratch hits/misses = %d/%d, want 98/2", hits, misses)
	}
}
