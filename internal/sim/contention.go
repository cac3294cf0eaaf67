// Contention-aware costing of recovery traffic.
//
// The analytic Study costs every repair as if it had the fabric to
// itself — the §3.2 model, where time is bytes over bandwidth. But the
// paper's operational complaint is about sharing: recovery traffic
// "consumes a large amount of cross-rack bandwidth, thereby rendering
// the bandwidth unavailable for the foreground map-reduce jobs" (§2.2).
// ContentionStudy replays the same workload.Trace through the netsim
// event-driven fabric, where every repair's helper flows fair-share
// NICs, TOR links, and the aggregation switch with foreground load and
// with each other, behind a repair scheduler with a bounded concurrency
// and a pluggable queueing policy.
//
// The outputs are distributional, not just totals: p50/p99 repair
// latency (time a stripe spends degraded, queueing included) and the
// degraded-read slowdown relative to an idle fabric. Comparing RS with
// Piggybacked-RS here shows the second-order claim — fewer bytes per
// repair means shorter service times, shorter queues, and a p99 that
// collapses at load levels where RS backs up.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/ec"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ContentionConfig parameterises a ContentionStudy.
type ContentionConfig struct {
	// Topology is the simulated fabric. Racks must exceed the code's
	// stripe width (every block on its own rack plus a fresh rack for
	// the rebuilt block).
	Topology netsim.Topology
	// Policy is the repair scheduler's queueing policy.
	Policy netsim.Policy
	// MaxConcurrentRepairs bounds repairs in flight (the production
	// fixer's work-queue depth).
	MaxConcurrentRepairs int
	// RepairsPerDay caps the sampled repairs simulated per trace day;
	// the trace's blocks are stride-sampled down to this many.
	RepairsPerDay int
	// DegradedReadsPerDay is the number of client degraded reads
	// injected per day.
	DegradedReadsPerDay int
	// PartialSums models every repair as a partial-sum aggregation
	// tree (rack-local folds, then a balanced cross-rack fold, one
	// block-sized buffer per edge) instead of the conventional k-wide
	// fan-in into the reconstructing node's NIC. Placement draws are
	// identical either way, so a conventional/partial comparison sees
	// the same stripes on the same machines.
	PartialSums bool
	// ForegroundWorkers is the closed-loop foreground client count; 0
	// disables foreground load. See netsim.SaturatingForeground for a
	// saturating setting.
	ForegroundWorkers int
	// ForegroundMeanBytes is the mean foreground flow size.
	ForegroundMeanBytes float64
	// WindowSeconds is the per-day simulation window over which repairs
	// are submitted and foreground load runs.
	WindowSeconds float64
	// MaxDays caps how many trace days are simulated (stride-sampled
	// across the trace); 0 means all days.
	MaxDays int
	// Seed drives placement and foreground randomness.
	Seed int64
}

// DefaultContentionConfig returns a saturating-load configuration that
// runs in seconds: a 16-rack fabric whose aggregation core 40 closed-
// loop foreground workers keep full, and 60 sampled repairs per day
// over 6 sampled days — enough repair pressure that the 4 repair slots
// run near saturation and queueing separates the codes at the tail.
func DefaultContentionConfig() ContentionConfig {
	topo := netsim.Topology{
		Racks:              16,
		MachinesPerRack:    8,
		NICBytesPerSec:     125e6,   // 1 GbE
		TORUpBytesPerSec:   312.5e6, // 2.5 Gb/s: 3.2:1 oversubscribed
		TORDownBytesPerSec: 312.5e6,
		AggBytesPerSec:     2.5e9, // 20 Gb/s core
	}
	return ContentionConfig{
		Topology:             topo,
		Policy:               netsim.PolicyFIFO,
		MaxConcurrentRepairs: 4,
		RepairsPerDay:        60,
		DegradedReadsPerDay:  6,
		ForegroundWorkers:    40, // 2x the flows that saturate the core
		ForegroundMeanBytes:  256 << 20,
		WindowSeconds:        600,
		MaxDays:              6,
		Seed:                 1,
	}
}

// Validate reports whether the configuration is usable for a code of
// the given stripe width.
func (c ContentionConfig) Validate(stripeWidth int) error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.Topology.Racks <= stripeWidth {
		return fmt.Errorf("sim: contention topology has %d racks, need > stripe width %d",
			c.Topology.Racks, stripeWidth)
	}
	if c.MaxConcurrentRepairs < 1 {
		return errors.New("sim: MaxConcurrentRepairs must be >= 1")
	}
	if c.RepairsPerDay < 1 {
		return errors.New("sim: RepairsPerDay must be >= 1")
	}
	if c.DegradedReadsPerDay < 0 {
		return errors.New("sim: DegradedReadsPerDay must be >= 0")
	}
	if c.ForegroundWorkers < 0 {
		return errors.New("sim: ForegroundWorkers must be >= 0")
	}
	if c.ForegroundWorkers > 0 && c.ForegroundMeanBytes <= 0 {
		return errors.New("sim: ForegroundMeanBytes must be positive with foreground load")
	}
	if c.WindowSeconds <= 0 {
		return errors.New("sim: WindowSeconds must be positive")
	}
	if c.MaxDays < 0 {
		return errors.New("sim: MaxDays must be >= 0")
	}
	return nil
}

// ContentionResult is the outcome of one contention study.
type ContentionResult struct {
	CodeName string
	Policy   string
	// PartialSums records whether repairs ran as aggregation-tree
	// pipelines rather than conventional fan-ins.
	PartialSums bool
	// DaysSimulated is the number of trace days replayed.
	DaysSimulated int

	// Repairs is the number of background repairs simulated.
	Repairs int
	// RepairP50/P99/Mean are submission-to-completion repair latencies
	// in seconds — queueing included, because a stripe is degraded from
	// failure detection to rebuilt block.
	RepairP50, RepairP99, RepairMean float64
	// RepairWaitMean is the mean queueing delay before a repair's
	// flows started.
	RepairWaitMean float64

	// DegradedReads is the number of degraded reads simulated.
	DegradedReads int
	// DegradedP50/P99 are degraded-read latencies in seconds.
	DegradedP50, DegradedP99 float64
	// UnloadedDegradedSeconds is the p50 of the identical reads run
	// alone on an idle fabric.
	UnloadedDegradedSeconds float64
	// DegradedSlowdownP50 is DegradedP50 over the unloaded time — how
	// much contention stretches a client-visible reconstruction.
	DegradedSlowdownP50 float64
}

// ContentionStudy replays a trace through the contended fabric under
// one erasure code.
type ContentionStudy struct {
	Code   ec.Code
	Config ContentionConfig
}

// NewContentionStudy builds a study with the default configuration.
func NewContentionStudy(code ec.Code) *ContentionStudy {
	return &ContentionStudy{Code: code, Config: DefaultContentionConfig()}
}

// sourceRead is one helper's aggregate contribution to a repair, in
// units of plan bytes at shard size 2.
type sourceRead struct {
	shard int
	units int64
}

// buildPlanSources aggregates, per stripe position, the repair plan's
// reads by source shard — the per-helper download breakdown that
// becomes one netsim transfer each.
func buildPlanSources(code ec.Code) ([][]sourceRead, error) {
	width := code.TotalShards()
	out := make([][]sourceRead, width)
	for idx := 0; idx < width; idx++ {
		plan, err := code.PlanRepair(idx, 2, ec.AllAliveExcept(idx))
		if err != nil {
			return nil, fmt.Errorf("sim: planning repair of shard %d: %w", idx, err)
		}
		per := make(map[int]int64)
		for _, r := range plan.Reads {
			per[r.Shard] += r.Length
		}
		shards := make([]int, 0, len(per))
		for s := range per {
			shards = append(shards, s)
		}
		sort.Ints(shards)
		reads := make([]sourceRead, len(shards))
		for i, s := range shards {
			reads[i] = sourceRead{shard: s, units: per[s]}
		}
		out[idx] = reads
	}
	return out, nil
}

// buildJob places the stripe on distinct racks and turns the plan's
// per-source units into netsim transfers for a block of the given
// size. With partialSums, the same placement draw instead becomes a
// hop pipeline: the helpers' aggregation tree, every edge carrying one
// folded block-sized buffer, the root delivering a single buffer to
// the destination.
func buildJob(rng *rand.Rand, topo netsim.Topology, reads []sourceRead, stripeWidth int, blockBytes int64, partialSums bool) netsim.Job {
	racks := rng.Perm(topo.Racks)
	machines := make([]int, stripeWidth)
	for i := 0; i < stripeWidth; i++ {
		machines[i] = racks[i]*topo.MachinesPerRack + rng.Intn(topo.MachinesPerRack)
	}
	// The rebuilt block lands on a rack the stripe does not occupy.
	dst := racks[stripeWidth]*topo.MachinesPerRack + rng.Intn(topo.MachinesPerRack)
	if partialSums {
		return netsim.Job{Dst: dst, Hops: partialHops(topo, reads, machines, dst, blockBytes)}
	}
	transfers := make([]netsim.Transfer, len(reads))
	for i, r := range reads {
		transfers[i] = netsim.Transfer{Src: machines[r.shard], Bytes: r.units * blockBytes / 2}
	}
	return netsim.Job{Dst: dst, Transfers: transfers}
}

// partialHops plans the repair's aggregation tree over the placed
// helpers and takes its edges as dependency-ordered netsim hops. Only
// the shape matters to the fluid model, so the tree is planned from
// unit-coefficient terms; every edge carries one folded buffer of the
// full block size (partial-sum repair trades the k-fan-in bottleneck
// for more, flatter edges — per-helper sub-block savings stay on the
// disks, not the wire).
func partialHops(topo netsim.Topology, reads []sourceRead, machines []int, dst int, blockBytes int64) []netsim.Hop {
	plan := &ec.LinearPlan{Shard: -1, ShardSize: blockBytes}
	for _, r := range reads {
		plan.Terms = append(plan.Terms, ec.LinearTerm{
			Read:  ec.ReadRequest{Shard: r.shard, Offset: 0, Length: blockBytes},
			Coeff: 1,
		})
	}
	tree, err := engine.PlanRepairTree(plan,
		func(pos int) (int, bool, error) { return machines[pos], true, nil },
		topo.RackOf,
	)
	if err != nil {
		// Unreachable: every read has a placed machine.
		panic(fmt.Sprintf("sim: partial tree: %v", err))
	}
	return tree.Hops(dst)
}

// isolatedJobSeconds runs the identical job alone on an idle fabric —
// the contention-free baseline for the slowdown ratio. Only the job's
// own flows contend (a fan-in still shares its destination NIC).
func isolatedJobSeconds(topo netsim.Topology, job netsim.Job) (float64, error) {
	sim, err := netsim.NewSimulator(topo)
	if err != nil {
		return 0, err
	}
	job.Submit = 0
	sched := netsim.NewScheduler(sim, netsim.PolicyFIFO, 1)
	sched.Submit(job)
	if err := sim.Run(math.Inf(1)); err != nil {
		return 0, err
	}
	res := sched.Results()
	if len(res) != 1 {
		return 0, errors.New("sim: isolated job did not complete")
	}
	return res[0].TotalSeconds(), nil
}

// Run replays the trace through the contended fabric.
func (s *ContentionStudy) Run(tr *workload.Trace) (*ContentionResult, error) {
	if s.Code == nil {
		return nil, errors.New("sim: ContentionStudy.Code is nil")
	}
	if tr == nil || len(tr.Days) == 0 {
		return nil, errors.New("sim: empty trace")
	}
	width := s.Code.TotalShards()
	if err := s.Config.Validate(width); err != nil {
		return nil, err
	}
	srcs, err := buildPlanSources(s.Code)
	if err != nil {
		return nil, err
	}

	// Stride-sample the trace days.
	days := tr.Days
	if s.Config.MaxDays > 0 && len(days) > s.Config.MaxDays {
		stride := (len(days) + s.Config.MaxDays - 1) / s.Config.MaxDays
		sampled := make([]workload.Day, 0, s.Config.MaxDays)
		for i := 0; i < len(days) && len(sampled) < s.Config.MaxDays; i += stride {
			sampled = append(sampled, days[i])
		}
		days = sampled
	}

	var repairTimes, repairWaits, degradedTimes, unloadedTimes []float64
	for _, day := range days {
		draws := day.SampleBlocks(tr.Config, width, s.Config.RepairsPerDay)
		if len(draws) == 0 && s.Config.DegradedReadsPerDay == 0 {
			continue
		}
		sim, err := netsim.NewSimulator(s.Config.Topology)
		if err != nil {
			return nil, err
		}
		// Per-day seeds: deterministic, decorrelated across days, and
		// independent of the code under study so both codes see the
		// same foreground process and the same placement stream.
		daySeed := s.Config.Seed ^ (int64(day.Index+1) * 0x5851f42d4c957f2d)
		if s.Config.ForegroundWorkers > 0 {
			err := netsim.InjectForeground(sim, netsim.ForegroundConfig{
				Workers:   s.Config.ForegroundWorkers,
				MeanBytes: s.Config.ForegroundMeanBytes,
				Until:     s.Config.WindowSeconds,
				Seed:      daySeed,
			})
			if err != nil {
				return nil, err
			}
		}
		sched := netsim.NewScheduler(sim, s.Config.Policy, s.Config.MaxConcurrentRepairs)
		rng := rand.New(rand.NewSource(daySeed + 1))

		// Repairs arrive over the first half of the window, so late
		// arrivals still complete under foreground load.
		spread := s.Config.WindowSeconds / 2 / float64(len(draws)+1)
		id := 0
		for i, d := range draws {
			job := buildJob(rng, s.Config.Topology, srcs[d.StripePos], width, d.Bytes, s.Config.PartialSums)
			job.ID = id
			job.Submit = float64(i+1) * spread
			id++
			sched.Submit(job)
		}
		// Degraded reads: clients hitting missing blocks, spread over
		// the same half-window, sized like the day's blocks.
		for j := 0; j < s.Config.DegradedReadsPerDay; j++ {
			size := tr.Config.BlockBytes
			if len(draws) > 0 {
				size = draws[j%len(draws)].Bytes
			}
			job := buildJob(rng, s.Config.Topology, srcs[rng.Intn(width)], width, size, s.Config.PartialSums)
			job.ID = id
			job.Degraded = true
			job.Submit = (float64(j) + 0.5) * s.Config.WindowSeconds / 2 / float64(s.Config.DegradedReadsPerDay)
			id++
			// Baseline the identical read on an idle fabric before
			// submitting it to the contended one.
			alone, err := isolatedJobSeconds(s.Config.Topology, job)
			if err != nil {
				return nil, err
			}
			unloadedTimes = append(unloadedTimes, alone)
			sched.Submit(job)
		}
		if err := sim.Run(s.Config.WindowSeconds * 1e6); err != nil {
			return nil, fmt.Errorf("sim: day %d: %w", day.Index, err)
		}
		for _, r := range sched.Results() {
			if r.Degraded {
				degradedTimes = append(degradedTimes, r.TotalSeconds())
			} else {
				repairTimes = append(repairTimes, r.TotalSeconds())
				repairWaits = append(repairWaits, r.Wait())
			}
		}
	}

	res := &ContentionResult{
		CodeName:      s.Code.Name(),
		Policy:        s.Config.Policy.String(),
		PartialSums:   s.Config.PartialSums,
		DaysSimulated: len(days),
		Repairs:       len(repairTimes),
		DegradedReads: len(degradedTimes),
	}
	if len(repairTimes) > 0 {
		res.RepairP50 = stats.Percentile(repairTimes, 50)
		res.RepairP99 = stats.Percentile(repairTimes, 99)
		res.RepairMean = stats.Mean(repairTimes)
		res.RepairWaitMean = stats.Mean(repairWaits)
	}
	if len(degradedTimes) > 0 {
		res.DegradedP50 = stats.Percentile(degradedTimes, 50)
		res.DegradedP99 = stats.Percentile(degradedTimes, 99)
		res.UnloadedDegradedSeconds = stats.Percentile(unloadedTimes, 50)
		if res.UnloadedDegradedSeconds > 0 {
			res.DegradedSlowdownP50 = res.DegradedP50 / res.UnloadedDegradedSeconds
		}
	}
	return res, nil
}

// ContentionComparison is a head-to-head contention costing of two
// codes on the identical trace, foreground process, and placements.
type ContentionComparison struct {
	Baseline  *ContentionResult
	Candidate *ContentionResult
}

// CompareContention runs the study for both codes with the same
// configuration.
func CompareContention(baseline, candidate ec.Code, tr *workload.Trace, cfg ContentionConfig) (*ContentionComparison, error) {
	b, err := (&ContentionStudy{Code: baseline, Config: cfg}).Run(tr)
	if err != nil {
		return nil, err
	}
	c, err := (&ContentionStudy{Code: candidate, Config: cfg}).Run(tr)
	if err != nil {
		return nil, err
	}
	return &ContentionComparison{Baseline: b, Candidate: c}, nil
}

// RepairP99Improvement returns the candidate's relative reduction in
// p99 repair latency (0.3 = 30% faster at the tail).
func (c *ContentionComparison) RepairP99Improvement() float64 {
	if c.Baseline.RepairP99 == 0 {
		return 0
	}
	return 1 - c.Candidate.RepairP99/c.Baseline.RepairP99
}
