// Package engine is the concurrent stripe-execution engine: it takes a
// batch of repair jobs or stripe-scoped tasks — from the mini-HDFS
// BlockFixer, or the benchmark's engine probe — and runs them across
// a bounded worker pool so that many stripes are in flight at once
// while each individual stripe still decodes with the cache-friendly
// fused kernels of internal/gf256.
//
// # Design
//
//   - A batch is an ordered slice of jobs; results come back in job
//     order regardless of completion order, so batched execution is a
//     drop-in replacement for a serial loop.
//   - Parallelism bounds the worker count. One worker degenerates to
//     the serial path (useful for parity testing and as the baseline
//     BenchmarkEngineRepair's speedup is measured against).
//   - Each worker owns a scratch arena drawn from a sync.Pool. Jobs
//     that supply a FetchInto callback, and the tasks of RunTasks
//     (which receive the arena itself), land their survivor reads in
//     pooled buffers, so a long repair batch recycles a few arenas
//     instead of allocating fresh fetch buffers per stripe. Codecs
//     return freshly allocated shards that never alias a fetched buffer
//     (the ec.Code contract), so nothing is copied out of the arena.
//   - The engine adds no reads of its own: a repair fetches what the
//     codec's plan charges for, so traffic accounting by a FetchFunc
//     is byte-identical to serial execution. (The codec's executor may
//     fetch two touching ranges of one helper as a single read.)
package engine

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/ec"
	"repro/internal/telemetry"
)

// Options configures an Engine.
type Options struct {
	// Parallelism is the maximum number of jobs in flight; 0 selects
	// GOMAXPROCS. Cache-level chunking is not configured here: the
	// gf256 bulk kernels chunk internally.
	Parallelism int
	// Telemetry, when non-nil, publishes the engine's instruments into
	// the registry: engine_workers (gauge), engine_jobs_total,
	// engine_busy_nanos_total, and the scratch-pool hit/miss counters
	// (engine_scratch_hits_total / engine_scratch_misses_total).
	// Engines sharing a registry share the instruments.
	Telemetry *telemetry.Registry
}

// Engine executes batches of stripe jobs over a bounded worker pool.
// An Engine is safe for concurrent use and may be shared; a zero-value
// Engine is not usable, construct with New.
type Engine struct {
	par     int
	scratch sync.Pool // *Scratch

	// Instruments (nil when Options.Telemetry was nil; every method on
	// them is a no-op then).
	cJobs *telemetry.Counter
	cBusy *telemetry.Counter
}

// New builds an engine. See Options for the zero-value defaults.
func New(opts Options) *Engine {
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	e := &Engine{par: par}
	var hits, misses *telemetry.Counter
	if reg := opts.Telemetry; reg != nil {
		reg.RegisterGauge("engine_workers", func() float64 { return float64(par) })
		e.cJobs = reg.Counter("engine_jobs_total")
		e.cBusy = reg.Counter("engine_busy_nanos_total")
		hits = reg.Counter("engine_scratch_hits_total")
		misses = reg.Counter("engine_scratch_misses_total")
	}
	e.scratch.New = func() any { return &Scratch{hits: hits, misses: misses} }
	return e
}

// Parallelism returns the worker bound.
func (e *Engine) Parallelism() int { return e.par }

// Scratch is a per-worker arena of reusable byte buffers. Buffers
// handed out by Bytes remain valid until Reset; the engine resets the
// arena between jobs, so pooled buffers never outlive the job that
// fetched into them.
type Scratch struct {
	bufs [][]byte
	next int

	// Pool efficiency counters (nil-safe no-ops when uninstrumented):
	// hits count the reuse branch, misses the refill allocations.
	hits   *telemetry.Counter
	misses *telemetry.Counter
}

// Bytes returns a length-n buffer, reusing a prior allocation when one
// is large enough. The buffer is NOT zeroed.
func (s *Scratch) Bytes(n int) []byte {
	if s.next < len(s.bufs) && cap(s.bufs[s.next]) >= n {
		b := s.bufs[s.next][:n]
		s.next++
		s.hits.Inc()
		return b
	}
	s.misses.Inc()
	//repolint:ignore noalloc the arena miss path IS the pool refill; steady-state fetches take the reuse branch above
	b := make([]byte, n)
	if s.next < len(s.bufs) {
		s.bufs[s.next] = b
	} else {
		//repolint:ignore noalloc arena growth amortises to zero once the pool reaches the batch's working set
		s.bufs = append(s.bufs, b)
	}
	s.next++
	return b
}

// Reset makes every buffer in the arena reusable again. Buffers handed
// out earlier must no longer be referenced.
func (s *Scratch) Reset() { s.next = 0 }

// FetchIntoFunc retrieves the bytes described by one ReadRequest into
// dst (whose length equals the request length). Jobs that provide it
// let the engine land survivor reads in pooled scratch buffers.
type FetchIntoFunc func(req ec.ReadRequest, dst []byte) error

// RepairJob asks for the missing shards of one stripe to be
// reconstructed. Exactly one of Fetch or FetchInto must be set.
type RepairJob struct {
	// Code is the stripe's codec. Codecs are safe for concurrent use,
	// so one codec instance is typically shared by every job.
	Code ec.Code
	// Missing lists the shard indices to reconstruct.
	Missing []int
	// ShardSize is the stripe's shard size in bytes.
	ShardSize int64
	// Alive reports shard availability to the repair planner.
	Alive ec.AliveFunc
	// Fetch retrieves planned byte ranges (caller-allocated buffers).
	Fetch ec.FetchFunc
	// FetchInto, when set instead of Fetch, retrieves planned ranges
	// into engine-pooled buffers, eliminating per-read allocations.
	FetchInto FetchIntoFunc
}

// RepairResult is the outcome of one RepairJob.
type RepairResult struct {
	// Shards holds the reconstructed shard contents keyed by index;
	// nil when Err is set. The buffers are freshly allocated and owned
	// by the caller; none aliases the engine's pooled fetch buffers.
	Shards map[int][]byte
	// Err is the job's failure, if any. One job failing does not
	// affect the others in the batch.
	Err error
}

// errNoFetch is returned for a repair job with no fetch callback.
var errNoFetch = errors.New("engine: repair job needs Fetch or FetchInto")

// RunRepairs executes a batch of repair jobs across the worker pool
// and returns per-job results in job order. Output bytes are identical
// to calling each job's codec serially.
func (e *Engine) RunRepairs(jobs []RepairJob) []RepairResult {
	results := make([]RepairResult, len(jobs))
	e.forEach(len(jobs), func(i int, s *Scratch) {
		results[i] = e.runRepair(&jobs[i], s)
	})
	return results
}

// runRepair executes one repair job with the worker's scratch arena.
func (e *Engine) runRepair(job *RepairJob, s *Scratch) RepairResult {
	fetch := job.Fetch
	switch {
	case fetch == nil && job.FetchInto == nil:
		return RepairResult{Err: errNoFetch}
	case fetch == nil:
		into := job.FetchInto
		//repolint:ignore noalloc one adapter closure per stripe job (not per fetch) is the price of landing every survivor read in pooled buffers
		fetch = func(req ec.ReadRequest) ([]byte, error) {
			buf := s.Bytes(int(req.Length))
			// Zero the recycled buffer so a FetchInto that writes short
			// sees zeros — exactly what a fresh allocation on the Fetch
			// path would hold — instead of a previous stripe's bytes.
			clear(buf)
			if err := into(req, buf); err != nil {
				return nil, err
			}
			return buf, nil
		}
	}
	// The codec's results are freshly allocated and alias no fetched
	// buffer (ec.Code), so they outlive the arena as they are.
	shards, err := job.Code.ExecuteMultiRepair(job.Missing, job.ShardSize, job.Alive, fetch)
	if err != nil {
		return RepairResult{Err: err}
	}
	return RepairResult{Shards: shards}
}

// RunTasks executes a batch of arbitrary stripe-scoped closures across
// the worker pool, returning per-task errors in task order — how the
// BlockFixer runs its conventional decodes and partial-sum fold trees
// under one concurrency bound. Each task receives its worker's scratch
// arena for fetch and fold buffers; the arena is reset after the task
// returns, so whatever a task keeps must not live in it.
func (e *Engine) RunTasks(tasks []func(*Scratch) error) []error {
	errs := make([]error, len(tasks))
	e.forEach(len(tasks), func(i int, s *Scratch) {
		errs[i] = tasks[i](s)
	})
	return errs
}

// forEach runs fn(i) for i in [0, n) across min(par, n) workers, each
// holding a pooled scratch arena for its lifetime.
func (e *Engine) forEach(n int, fn func(i int, s *Scratch)) {
	if n == 0 {
		return
	}
	if e.cBusy != nil {
		// Wrap once per batch: worker-busy nanoseconds and job counts
		// feed the utilization gauge ((busy/elapsed)/workers) without
		// touching the uninstrumented hot path.
		inner := fn
		fn = func(i int, s *Scratch) {
			t0 := time.Now()
			inner(i, s)
			e.cBusy.Add(int64(time.Since(t0)))
			e.cJobs.Inc()
		}
	}
	workers := e.par
	if workers > n {
		workers = n
	}
	if workers == 1 {
		s := e.scratch.Get().(*Scratch)
		for i := 0; i < n; i++ {
			fn(i, s)
			s.Reset()
		}
		e.scratch.Put(s)
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.scratch.Get().(*Scratch)
			defer e.scratch.Put(s)
			for i := range next {
				fn(i, s)
				s.Reset()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
