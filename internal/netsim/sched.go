package netsim

import (
	"fmt"
	"sort"
)

// Policy selects how the repair scheduler orders its queue.
type Policy int

const (
	// PolicyFIFO admits repairs in submission order.
	PolicyFIFO Policy = iota
	// PolicySmallestFirst admits the repair with the fewest total bytes
	// first — shortest-job-first over repair plans, minimising mean
	// latency at the cost of large-stripe starvation under load.
	PolicySmallestFirst
	// PolicyPriorityLanes runs degraded reads immediately in the
	// priority class (preempting bulk bandwidth) while background
	// repairs queue FIFO in the bulk class.
	PolicyPriorityLanes
)

// String names the policy for reports.
func (p Policy) String() string {
	switch p {
	case PolicyFIFO:
		return "fifo"
	case PolicySmallestFirst:
		return "smallest-first"
	case PolicyPriorityLanes:
		return "priority-lanes"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Transfer is one helper-to-destination leg of a repair job.
type Transfer struct {
	// Src is the helper machine read from.
	Src int
	// Bytes is the leg's download size.
	Bytes int64
}

// Hop is one edge of a multi-hop repair pipeline — a partial-sum
// aggregation tree, where helpers fold upstream partial buffers and
// forward one folded buffer downstream. A hop starts only after every
// hop listed in After has completed (the fold edges feeding its
// source).
type Hop struct {
	// Src and Dst are the edge's endpoints.
	Src, Dst int
	// Bytes is the folded buffer size carried on this edge.
	Bytes int64
	// After lists indices (into the job's Hops) that must complete
	// before this hop starts. The builder must keep it acyclic.
	After []int
}

// Job is one repair (or degraded read) to schedule. Two shapes:
//
//   - Conventional fan-in: Transfers from surviving helpers to Dst,
//     all concurrent; the job completes when the last one does. This
//     is what concentrates k block-sized flows on Dst's NIC downlink.
//
//   - Partial-sum pipeline: Hops (when non-empty, Transfers is
//     ignored) — a dependency-ordered aggregation tree whose final
//     edge delivers one folded buffer to Dst. Per-edge bytes match
//     the fan-in's per-helper bytes in aggregate across the fabric,
//     but no single link carries more than ~one block.
type Job struct {
	// ID tags the job in results.
	ID int
	// Dst is the machine reconstructing the block.
	Dst int
	// Transfers are the helper reads of a conventional repair plan.
	Transfers []Transfer
	// Hops, when non-empty, replaces Transfers with a multi-hop
	// aggregation pipeline.
	Hops []Hop
	// Degraded marks a client-facing degraded read (a block read that
	// had to reconstruct); the priority-lane policy fast-paths these.
	Degraded bool
	// Submit is the simulated time the job enters the queue.
	Submit float64
}

// TotalBytes sums the job's wire bytes (transfer legs, or hop edges
// for a pipeline job).
func (j *Job) TotalBytes() int64 {
	var n int64
	if len(j.Hops) > 0 {
		for _, h := range j.Hops {
			n += h.Bytes
		}
		return n
	}
	for _, t := range j.Transfers {
		n += t.Bytes
	}
	return n
}

// JobResult records one scheduled job's timeline.
type JobResult struct {
	ID       int
	Degraded bool
	Bytes    int64
	// Submit, Start, Finish are simulated seconds.
	Submit, Start, Finish float64
}

// Wait returns the queueing delay before the job's flows started.
func (r JobResult) Wait() float64 { return r.Start - r.Submit }

// TransferSeconds returns the time the job's flows were in flight.
//
//repolint:ignore deadexport ROADMAP 9: netsim is kept or deleted by its agreement with the live shaper
func (r JobResult) TransferSeconds() float64 { return r.Finish - r.Start }

// TotalSeconds returns submission-to-completion latency — the repair
// time a stripe actually spends in degraded state.
func (r JobResult) TotalSeconds() float64 { return r.Finish - r.Submit }

// Scheduler admits repair jobs onto a Simulator under a concurrency
// bound and a queueing policy. Create one per simulation run.
type Scheduler struct {
	sim           *Simulator
	policy        Policy
	maxConcurrent int

	queue   []*queuedJob
	running int
	results []JobResult
}

type queuedJob struct {
	job         Job
	outstanding int
	start       float64
}

// NewScheduler builds a scheduler over the simulator. maxConcurrent
// bounds concurrently executing non-degraded jobs; values < 1 are
// treated as 1. Degraded reads under PolicyPriorityLanes bypass the
// bound entirely — a client is already blocked on them.
func NewScheduler(sim *Simulator, policy Policy, maxConcurrent int) *Scheduler {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	return &Scheduler{sim: sim, policy: policy, maxConcurrent: maxConcurrent}
}

// Submit schedules the job to enter the queue at job.Submit.
func (s *Scheduler) Submit(job Job) {
	s.sim.At(job.Submit, func() {
		qj := &queuedJob{job: job}
		if s.policy == PolicyPriorityLanes && job.Degraded {
			s.launch(qj, ClassPriority)
			return
		}
		s.queue = append(s.queue, qj)
		s.dispatch()
	})
}

// dispatch admits queued jobs while concurrency slots are free.
func (s *Scheduler) dispatch() {
	for s.running < s.maxConcurrent && len(s.queue) > 0 {
		idx := 0
		if s.policy == PolicySmallestFirst {
			idx = s.smallestIndex()
		}
		qj := s.queue[idx]
		s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
		s.running++
		s.launch(qj, ClassBulk)
	}
}

// smallestIndex returns the queued job with the fewest bytes, breaking
// ties by arrival order.
func (s *Scheduler) smallestIndex() int {
	best := 0
	bestBytes := s.queue[0].job.TotalBytes()
	for i := 1; i < len(s.queue); i++ {
		if b := s.queue[i].job.TotalBytes(); b < bestBytes {
			best, bestBytes = i, b
		}
	}
	return best
}

// launch starts every transfer of the job in the given class. counted
// reflects whether the job holds a concurrency slot (degraded
// fast-path jobs do not).
func (s *Scheduler) launch(qj *queuedJob, class Class) {
	qj.start = s.sim.Now()
	counted := class == ClassBulk
	if len(qj.job.Hops) > 0 {
		s.launchHops(qj, class, counted)
		return
	}
	live := 0
	for _, tr := range qj.job.Transfers {
		if tr.Src == qj.job.Dst || tr.Bytes == 0 {
			continue // loopback or empty legs cost nothing on the wire
		}
		live++
	}
	qj.outstanding = live
	if live == 0 {
		s.finish(qj, counted)
		return
	}
	for _, tr := range qj.job.Transfers {
		if tr.Src == qj.job.Dst || tr.Bytes == 0 {
			continue
		}
		// Errors are impossible here by construction (endpoints come
		// from the same topology); surface them loudly if not.
		if _, err := s.sim.StartFlow(tr.Src, qj.job.Dst, tr.Bytes, class, func(float64) {
			qj.outstanding--
			if qj.outstanding == 0 {
				s.finish(qj, counted)
			}
		}); err != nil {
			panic(fmt.Sprintf("netsim: scheduler launch: %v", err))
		}
	}
}

// launchHops executes a job's multi-hop pipeline: hops with no unmet
// dependencies start immediately; each completion releases its
// dependents. Loopback and zero-byte hops still round through the
// event loop, so completion order stays deterministic.
func (s *Scheduler) launchHops(qj *queuedJob, class Class, counted bool) {
	hops := qj.job.Hops
	qj.outstanding = len(hops)
	waiting := make([]int, len(hops)) // unmet dependency count per hop
	dependents := make([][]int, len(hops))
	for i, h := range hops {
		for _, a := range h.After {
			if a < 0 || a >= len(hops) {
				panic(fmt.Sprintf("netsim: hop %d depends on out-of-range hop %d", i, a))
			}
			waiting[i]++
			dependents[a] = append(dependents[a], i)
		}
	}
	var start func(i int)
	start = func(i int) {
		h := hops[i]
		if _, err := s.sim.StartFlow(h.Src, h.Dst, h.Bytes, class, func(float64) {
			qj.outstanding--
			for _, d := range dependents[i] {
				if waiting[d]--; waiting[d] == 0 {
					start(d)
				}
			}
			if qj.outstanding == 0 {
				s.finish(qj, counted)
			}
		}); err != nil {
			panic(fmt.Sprintf("netsim: scheduler hop launch: %v", err))
		}
	}
	// Enforce acyclicity up front (Kahn's count over a copy): a hop
	// stuck in a cycle would otherwise silently strand the job with its
	// concurrency slot held, starving everything queued behind it.
	left := append([]int(nil), waiting...)
	queue := make([]int, 0, len(hops))
	for i := range hops {
		if left[i] == 0 {
			queue = append(queue, i)
		}
	}
	for n := 0; n < len(queue); n++ {
		for _, d := range dependents[queue[n]] {
			if left[d]--; left[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(queue) != len(hops) {
		panic(fmt.Sprintf("netsim: pipeline job has a dependency cycle (%d of %d hops reachable)", len(queue), len(hops)))
	}
	for i := range hops {
		if waiting[i] == 0 {
			start(i)
		}
	}
}

// finish records the job and frees its slot.
func (s *Scheduler) finish(qj *queuedJob, counted bool) {
	s.results = append(s.results, JobResult{
		ID:       qj.job.ID,
		Degraded: qj.job.Degraded,
		Bytes:    qj.job.TotalBytes(),
		Submit:   qj.job.Submit,
		Start:    qj.start,
		Finish:   s.sim.Now(),
	})
	if counted {
		s.running--
		s.dispatch()
	}
}

// Results returns the completed jobs sorted by ID (stable regardless of
// completion order).
func (s *Scheduler) Results() []JobResult {
	out := append([]JobResult(nil), s.results...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Pending returns queued plus running job counts (for tests).
//
//repolint:ignore deadexport ROADMAP 9: netsim is kept or deleted by its agreement with the live shaper
func (s *Scheduler) Pending() int { return len(s.queue) + s.running }
