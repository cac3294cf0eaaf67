// Contention mode: RS versus Piggybacked-RS repair latency on the
// event-driven contended fabric — the operational half of the
// paper's claim. Fewer repair bytes is the mechanism; what an operator
// feels is the tail: p99 time-in-degraded-state and how much a client's
// degraded read slows down while the core is saturated with foreground
// shuffle traffic.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro"
)

// ContentionBenchResult is the -out JSON payload. Everything in it is
// simulated, so deterministic for a fixed seed.
type ContentionBenchResult struct {
	Benchmark string `json:"benchmark"`
	Seed      int64  `json:"seed"`
	TraceDays int    `json:"trace_days"`

	Policy               string  `json:"policy"`
	DaysSimulated        int     `json:"days_simulated"`
	RepairsPerDay        int     `json:"repairs_per_day"`
	DegradedReadsPerDay  int     `json:"degraded_reads_per_day"`
	MaxConcurrentRepairs int     `json:"max_concurrent_repairs"`
	ForegroundWorkers    int     `json:"foreground_workers"`
	ForegroundMeanMB     float64 `json:"foreground_mean_mb"`
	WindowSeconds        float64 `json:"window_seconds"`

	Racks           int     `json:"racks"`
	MachinesPerRack int     `json:"machines_per_rack"`
	NICGbps         float64 `json:"nic_gbps"`
	TORUpGbps       float64 `json:"tor_up_gbps"`
	AggGbps         float64 `json:"agg_gbps"`

	Codecs []CodecContentionResult `json:"codecs"`

	// P99ImprovementFraction is the candidate's (second codec's)
	// relative p99 repair-latency reduction over the baseline.
	P99ImprovementFraction float64 `json:"p99_improvement_fraction"`
	// PartialSumP99ImprovementFraction is the relative p99 reduction of
	// RS-with-partial-sum-repair over conventional RS — the tentpole's
	// bottleneck-relief claim quantified on the identical trace.
	PartialSumP99ImprovementFraction float64 `json:"partial_sum_p99_improvement_fraction"`
}

// CodecContentionResult is one codec's contention measurements.
type CodecContentionResult struct {
	Codec               string  `json:"codec"`
	PartialSum          bool    `json:"partial_sum"`
	Repairs             int     `json:"repairs"`
	RepairP50Secs       float64 `json:"repair_p50_secs"`
	RepairP99Secs       float64 `json:"repair_p99_secs"`
	RepairMeanSecs      float64 `json:"repair_mean_secs"`
	RepairWaitMeanSecs  float64 `json:"repair_wait_mean_secs"`
	DegradedReads       int     `json:"degraded_reads"`
	DegradedP50Secs     float64 `json:"degraded_p50_secs"`
	DegradedP99Secs     float64 `json:"degraded_p99_secs"`
	UnloadedP50Secs     float64 `json:"unloaded_degraded_p50_secs"`
	DegradedSlowdownP50 float64 `json:"degraded_slowdown_p50"`
}

func toCodecResult(r *repro.ContentionResult) CodecContentionResult {
	name := r.CodeName
	if r.PartialSums {
		name += " +partial-sum"
	}
	return CodecContentionResult{
		Codec:               name,
		PartialSum:          r.PartialSums,
		Repairs:             r.Repairs,
		RepairP50Secs:       r.RepairP50,
		RepairP99Secs:       r.RepairP99,
		RepairMeanSecs:      r.RepairMean,
		RepairWaitMeanSecs:  r.RepairWaitMean,
		DegradedReads:       r.DegradedReads,
		DegradedP50Secs:     r.DegradedP50,
		DegradedP99Secs:     r.DegradedP99,
		UnloadedP50Secs:     r.UnloadedDegradedSeconds,
		DegradedSlowdownP50: r.DegradedSlowdownP50,
	}
}

func parsePolicy(s string) (repro.SchedulerPolicy, error) {
	switch s {
	case "fifo":
		return repro.PolicyFIFO, nil
	case "smallest-first":
		return repro.PolicySmallestFirst, nil
	case "priority-lanes":
		return repro.PolicyPriorityLanes, nil
	default:
		return 0, fmt.Errorf("unknown -policy %q (want fifo, smallest-first, or priority-lanes)", s)
	}
}

func contentionBench(k, r, days int, policyName string, seed int64, outFile string) error {
	policy, err := parsePolicy(policyName)
	if err != nil {
		return err
	}
	if days < 1 {
		return fmt.Errorf("-days must be >= 1, got %d", days)
	}
	rsc, err := repro.NewRS(k, r)
	if err != nil {
		return err
	}
	pb, err := repro.NewPiggybackedRS(k, r)
	if err != nil {
		return err
	}
	traceCfg := repro.DefaultTraceConfig()
	traceCfg.Days = days
	traceCfg.Seed = seed
	tr, err := repro.GenerateTrace(traceCfg)
	if err != nil {
		return err
	}
	cfg := repro.DefaultContentionConfig()
	cfg.Policy = policy
	cfg.Seed = seed
	if width := rsc.TotalShards(); cfg.Topology.Racks <= width {
		cfg.Topology.Racks = width + 2
	}

	fmt.Printf("Contention study: (%d,%d) codes, %d-day trace, policy %s\n", k, r, days, policy)
	fmt.Printf("fabric: %d racks x %d machines, NIC %.1f Gb/s, TOR %.1f Gb/s, agg %.1f Gb/s\n",
		cfg.Topology.Racks, cfg.Topology.MachinesPerRack,
		cfg.Topology.NICBytesPerSec*8/1e9, cfg.Topology.TORUpBytesPerSec*8/1e9, cfg.Topology.AggBytesPerSec*8/1e9)
	fmt.Printf("load: %d foreground workers (%.0f MB mean flows), %d repairs + %d degraded reads per day, %d repair slots\n\n",
		cfg.ForegroundWorkers, cfg.ForegroundMeanBytes/1e6,
		cfg.RepairsPerDay, cfg.DegradedReadsPerDay, cfg.MaxConcurrentRepairs)

	cmp, err := repro.CompareContentionCodecs(rsc, pb, tr, cfg)
	if err != nil {
		return err
	}
	// The same trace and placement stream, with repairs running as
	// partial-sum aggregation trees instead of k-wide fan-ins.
	partialCfg := cfg
	partialCfg.PartialSums = true
	partialCmp, err := repro.CompareContentionCodecs(rsc, pb, tr, partialCfg)
	if err != nil {
		return err
	}

	result := ContentionBenchResult{
		Benchmark:            "contention-repair",
		Seed:                 seed,
		TraceDays:            days,
		Policy:               policy.String(),
		DaysSimulated:        cmp.Baseline.DaysSimulated,
		RepairsPerDay:        cfg.RepairsPerDay,
		DegradedReadsPerDay:  cfg.DegradedReadsPerDay,
		MaxConcurrentRepairs: cfg.MaxConcurrentRepairs,
		ForegroundWorkers:    cfg.ForegroundWorkers,
		ForegroundMeanMB:     cfg.ForegroundMeanBytes / 1e6,
		WindowSeconds:        cfg.WindowSeconds,
		Racks:                cfg.Topology.Racks,
		MachinesPerRack:      cfg.Topology.MachinesPerRack,
		NICGbps:              cfg.Topology.NICBytesPerSec * 8 / 1e9,
		TORUpGbps:            cfg.Topology.TORUpBytesPerSec * 8 / 1e9,
		AggGbps:              cfg.Topology.AggBytesPerSec * 8 / 1e9,
		Codecs: []CodecContentionResult{
			toCodecResult(cmp.Baseline),
			toCodecResult(cmp.Candidate),
			toCodecResult(partialCmp.Baseline),
			toCodecResult(partialCmp.Candidate),
		},
		P99ImprovementFraction: cmp.RepairP99Improvement(),
	}
	if base := cmp.Baseline.RepairP99; base > 0 {
		result.PartialSumP99ImprovementFraction = 1 - partialCmp.Baseline.RepairP99/base
	}

	fmt.Printf("%-34s %10s %10s %10s %10s %12s %10s\n",
		"codec", "p50", "p99", "mean", "wait", "degraded p50", "slowdown")
	for _, c := range result.Codecs {
		fmt.Printf("%-34s %9.1fs %9.1fs %9.1fs %9.1fs %11.1fs %9.2fx\n",
			c.Codec, c.RepairP50Secs, c.RepairP99Secs, c.RepairMeanSecs,
			c.RepairWaitMeanSecs, c.DegradedP50Secs, c.DegradedSlowdownP50)
	}
	fmt.Printf("\npiggybacked-rs cuts p99 repair latency by %.1f%% at this load\n",
		100*result.P99ImprovementFraction)
	fmt.Printf("partial-sum repair cuts RS p99 repair latency by %.1f%% at this load\n",
		100*result.PartialSumP99ImprovementFraction)

	if outFile != "" {
		blob, err := json.MarshalIndent(result, "", "  ")
		if err != nil {
			return err
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(outFile, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("results written to %s\n", outFile)
	}
	return nil
}
