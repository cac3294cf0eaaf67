// Command experiments runs every experiment in the reproduction and
// prints a paper-vs-measured report: one section per figure, table, or
// quantitative claim of the paper. It regenerates every row of the map
// in the root package doc (doc.go).
//
// Usage:
//
//	experiments [-days N] [-seed S] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/regenerating"
	"repro/internal/reliability"
	"repro/internal/rs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	days := flag.Int("days", 96, "trace length in days (longer = tighter medians)")
	seed := flag.Int64("seed", 1, "trace seed")
	quick := flag.Bool("quick", false, "shrink the §2.2 simulation for fast runs")
	flag.Parse()

	if err := run(*days, *seed, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(days int, seed int64, quick bool) error {
	rsc, err := rs.New(10, 4)
	if err != nil {
		return err
	}
	pb, err := core.New(10, 4)
	if err != nil {
		return err
	}
	lc, err := lrc.New(10, 4, 2)
	if err != nil {
		return err
	}

	fmt.Println("================================================================")
	fmt.Println(" Reproduction report: HotStorage 2013 Facebook warehouse study")
	fmt.Println("================================================================")

	if err := fig1(rsc); err != nil {
		return err
	}
	if err := fig2(rsc); err != nil {
		return err
	}

	cfg := workload.DefaultConfig()
	cfg.Days = days
	cfg.Seed = seed
	tr, err := workload.Generate(cfg)
	if err != nil {
		return err
	}

	if err := fig3a(tr); err != nil {
		return err
	}
	if err := sec22(quick); err != nil {
		return err
	}
	cmp, err := fig3b(rsc, pb, tr)
	if err != nil {
		return err
	}
	if err := fig4(); err != nil {
		return err
	}
	if err := sec32Savings(rsc, pb, lc); err != nil {
		return err
	}
	if err := sec32Traffic(cmp); err != nil {
		return err
	}
	if err := sec32RecoveryTime(cmp); err != nil {
		return err
	}
	if err := sec32MTTDL(rsc, pb, lc); err != nil {
		return err
	}
	storageOverheads(rsc, pb, lc)
	if err := sec22Backlog(cmp); err != nil {
		return err
	}
	if err := sec4Layout(pb, rsc); err != nil {
		return err
	}
	if err := sec5Bounds(pb); err != nil {
		return err
	}
	return nil
}

func sec22Backlog(cmp *sim.Comparison) error {
	fmt.Println("\n--- §2.2 (extension): recovery vs foreground bandwidth ---")
	budget := int64(170 * stats.TB)
	rsBL, err := sim.RecoveryBacklog(cmp.Baseline, budget)
	if err != nil {
		return err
	}
	pbBL, err := sim.RecoveryBacklog(cmp.Candidate, budget)
	if err != nil {
		return err
	}
	fmt.Printf("paper   : recovery traffic crowds out foreground map-reduce jobs\n")
	fmt.Printf("measured: throttled at %s/day over %d days —\n", stats.FormatBytes(budget), len(rsBL.Days))
	fmt.Printf("          rs  : %d saturated days, peak backlog %s, mean utilization %.0f%%\n",
		rsBL.SaturatedDays, stats.FormatBytes(rsBL.PeakBacklogBytes), 100*rsBL.MeanUtilization)
	fmt.Printf("          pbrs: %d saturated days, peak backlog %s, mean utilization %.0f%%\n",
		pbBL.SaturatedDays, stats.FormatBytes(pbBL.PeakBacklogBytes), 100*pbBL.MeanUtilization)
	return nil
}

func sec4Layout(pb *core.Code, rsc *rs.Code) error {
	fmt.Println("\n--- §4 (future work, later Hitchhiker): on-disk substripe layout ---")
	const block = int64(256 << 20)
	pbPlan, err := pb.PlanRepair(0, block, ec.AllAliveExcept(0))
	if err != nil {
		return err
	}
	rsPlan, err := rsc.PlanRepair(0, block, ec.AllAliveExcept(0))
	if err != nil {
		return err
	}
	_, coupled, err := layout.PlanGeometry(layout.Coupled, pbPlan)
	if err != nil {
		return err
	}
	_, inter, err := layout.PlanGeometry(layout.Interleaved, pbPlan)
	if err != nil {
		return err
	}
	_, rsDisk, err := layout.PlanGeometry(layout.Coupled, rsPlan)
	if err != nil {
		return err
	}
	fmt.Printf("paper   : code 'reduces the amount of read' — requires substripe-contiguous layout\n")
	fmt.Printf("measured: disk bytes per data-block repair: rs %s | pbrs coupled %s | pbrs interleaved %s\n",
		stats.FormatBytes(rsDisk), stats.FormatBytes(coupled), stats.FormatBytes(inter))
	fmt.Printf("          naive byte-interleaving would EXCEED the RS disk read — hop-and-couple fixes it\n")
	return nil
}

func sec5Bounds(pb *core.Code) error {
	fmt.Println("\n--- §5 (related work): regenerating-code lower bounds ---")
	p := regenerating.Params{N: 14, K: 10, D: 13}
	msr, err := regenerating.RepairFractionBound(p)
	if err != nil {
		return err
	}
	dataFrac := pb.AverageDataRepairFraction()
	fmt.Printf("paper   : regenerating codes achieve lower download but restrict parameters\n")
	fmt.Printf("measured: repair floor (MSR, storage-optimal) = %.3f of stripe data; rs = 1.000;\n", msr)
	fmt.Printf("          piggybacked-rs = %.3f (data avg) — captures %.0f%% of the available saving\n",
		dataFrac, 100*(1-dataFrac)/(1-msr))
	return nil
}

func fig1(rsc *rs.Code) error {
	fmt.Println("\n--- Fig. 1: network amplification of (2,2) RS recovery ---")
	code, err := rs.New(2, 2)
	if err != nil {
		return err
	}
	plan, err := code.PlanRepair(0, 1, ec.AllAliveExcept(0))
	if err != nil {
		return err
	}
	fmt.Printf("paper   : recovering one unit moves 2 units through TOR + AS switches\n")
	fmt.Printf("measured: repair plan reads %d units from %d nodes\n", plan.TotalBytes(), plan.Sources())
	_ = rsc
	return nil
}

func fig2(rsc *rs.Code) error {
	fmt.Println("\n--- Fig. 2: (10,4) striping layout ---")
	data := make([]byte, 10*64)
	for i := range data {
		data[i] = byte(i * 31)
	}
	shards, err := ec.SplitShards(data, 10, 4, rsc.MinShardSize())
	if err != nil {
		return err
	}
	if err := rsc.Encode(shards); err != nil {
		return err
	}
	ok, err := rsc.Verify(shards)
	if err != nil {
		return err
	}
	fmt.Printf("paper   : 10 data blocks encode to 4 parity blocks, byte-level striping\n")
	fmt.Printf("measured: stripe of %d+%d shards, parity verifies: %v\n",
		rsc.DataShards(), rsc.ParityShards(), ok)
	return nil
}

func fig3a(tr *workload.Trace) error {
	fmt.Println("\n--- Fig. 3a: machines unavailable > 15 min per day ---")
	series := tr.UnavailableSeries()
	f := stats.IntsToFloats(series)
	fmt.Printf("paper   : median > 50 events/day, spikes toward ~350\n")
	fmt.Printf("measured: median %.0f, min %.0f, max %.0f over %d days\n",
		stats.Median(f), stats.Min(f), stats.Max(f), len(series))
	fmt.Print("day series: ")
	for i, v := range series {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Print(v)
		if i == 23 {
			break
		}
	}
	fmt.Println(" ... (first 24 days)")
	return nil
}

func sec22(quick bool) error {
	fmt.Println("\n--- §2.2 item 2: missing blocks per affected stripe ---")
	cfg := sim.DefaultStripeFailureConfig()
	if quick {
		cfg.Stripes = 20000
		cfg.Windows = 2
	}
	dist, err := sim.MissingBlockDistribution(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("paper   : 1 missing: 98.08%%   2 missing: 1.87%%   >=3 missing: 0.05%%\n")
	fmt.Printf("measured: 1 missing: %5.2f%%   2 missing: %4.2f%%   >=3 missing: %4.2f%%  (%d affected stripes)\n",
		100*dist.Fraction(1), 100*dist.Fraction(2), 100*dist.FractionAtLeast(3), dist.TotalAffected)
	return nil
}

func fig3b(rsc *rs.Code, pb *core.Code, tr *workload.Trace) (*sim.Comparison, error) {
	fmt.Println("\n--- Fig. 3b: blocks reconstructed and cross-rack bytes per day ---")
	cmp, err := sim.Compare(rsc, pb, tr)
	if err != nil {
		return nil, err
	}
	b := cmp.Baseline
	fmt.Printf("paper   : median 95,500 blocks/day; median > 180 TB cross-rack/day (RS)\n")
	fmt.Printf("measured: median %.0f blocks/day; median %s cross-rack/day (%s)\n",
		b.MedianBlocksPerDay, stats.FormatBytes(int64(b.MedianCrossRackBytes)), b.CodeName)
	fmt.Printf("          day range: %s .. %s cross-rack\n",
		stats.FormatBytes(minDayBytes(b)), stats.FormatBytes(maxDayBytes(b)))
	return cmp, nil
}

func minDayBytes(r *sim.Result) int64 {
	m := r.Days[0].CrossRackBytes
	for _, d := range r.Days {
		if d.CrossRackBytes < m {
			m = d.CrossRackBytes
		}
	}
	return m
}

func maxDayBytes(r *sim.Result) int64 {
	m := r.Days[0].CrossRackBytes
	for _, d := range r.Days {
		if d.CrossRackBytes > m {
			m = d.CrossRackBytes
		}
	}
	return m
}

func fig4() error {
	fmt.Println("\n--- Fig. 4 / Example 1: toy (2,2) piggybacked code ---")
	code, err := core.New(2, 2)
	if err != nil {
		return err
	}
	plan, err := code.PlanRepair(0, 2, ec.AllAliveExcept(0))
	if err != nil {
		return err
	}
	fmt.Printf("paper   : node 1 recovered with 3 bytes instead of 4\n")
	fmt.Printf("measured: repair of node 1 downloads %d bytes (stripe stores 2 bytes/node)\n",
		plan.TotalBytes())
	return nil
}

func sec32Savings(rsc *rs.Code, pb *core.Code, lc *lrc.Code) error {
	fmt.Println("\n--- §3.1/§3.2: single-block recovery download, (10,4), per position ---")
	const shard = 256 << 20
	fmt.Printf("%-22s", "position:")
	for i := 0; i < 14; i++ {
		fmt.Printf("%6d", i)
	}
	fmt.Println("   avg(data)  avg(all)")
	for _, c := range []ec.Code{rsc, pb} {
		per, avg, err := ec.RepairFraction(c, shard)
		if err != nil {
			return err
		}
		var dataAvg float64
		for i := 0; i < c.DataShards(); i++ {
			dataAvg += per[i]
		}
		dataAvg /= float64(c.DataShards())
		fmt.Printf("%-22s", c.Name()+":")
		for i := 0; i < 14; i++ {
			fmt.Printf("%6.2f", per[i])
		}
		fmt.Printf("   %8.3f  %8.3f\n", dataAvg, avg)
	}
	fmt.Printf("paper   : piggybacked code saves ~30%% on average for single block failures\n")
	_, pbAvg, _ := ec.RepairFraction(pb, shard)
	fmt.Printf("measured: savings %.1f%% averaged over data blocks, %.1f%% over all 14 blocks\n",
		100*(1-pb.AverageDataRepairFraction()), 100*(1-pbAvg))
	_, lcAvg, _ := ec.RepairFraction(lc, shard)
	fmt.Printf("context : %s repairs at %.3f of RS but stores %.1fx (not MDS, §5)\n",
		lc.Name(), lcAvg, lc.StorageOverhead())
	return nil
}

func sec32Traffic(cmp *sim.Comparison) error {
	fmt.Println("\n--- §3.2: projected cross-rack traffic reduction ---")
	saved := cmp.DailySavingsBytes()
	fmt.Printf("paper   : replacing RS with Piggybacked-RS saves \"close to fifty\" TB/day\n")
	fmt.Printf("measured: %s/day saved (%.1f%% of recovery traffic) on the same trace\n",
		stats.FormatBytes(int64(saved)), 100*cmp.SavingsFraction())
	fmt.Printf("          RS: %s/day   Piggybacked-RS: %s/day (means)\n",
		stats.FormatBytes(int64(cmp.Baseline.MeanCrossRackBytesPerDay())),
		stats.FormatBytes(int64(cmp.Candidate.MeanCrossRackBytesPerDay())))
	return nil
}

func sec32RecoveryTime(cmp *sim.Comparison) error {
	fmt.Println("\n--- §3.2: time taken for recovery ---")
	fmt.Printf("paper   : more helpers, fewer bytes => recovery no slower (bandwidth-bound)\n")
	fmt.Printf("measured: mean per-block recovery %v (RS) vs %v (Piggybacked-RS)\n",
		cmp.Baseline.MeanRecoveryTimePerBlock().Round(1000000),
		cmp.Candidate.MeanRecoveryTimePerBlock().Round(1000000))
	const ms = 1000000
	fmt.Printf("          percentiles (RS)  : P50 %v  P95 %v  P99 %v\n",
		cmp.Baseline.RecoveryTimePercentile(50).Round(ms),
		cmp.Baseline.RecoveryTimePercentile(95).Round(ms),
		cmp.Baseline.RecoveryTimePercentile(99).Round(ms))
	fmt.Printf("          percentiles (PBRS): P50 %v  P95 %v  P99 %v\n",
		cmp.Candidate.RecoveryTimePercentile(50).Round(ms),
		cmp.Candidate.RecoveryTimePercentile(95).Round(ms),
		cmp.Candidate.RecoveryTimePercentile(99).Round(ms))
	return nil
}

func sec32MTTDL(rsc *rs.Code, pb *core.Code, lc *lrc.Code) error {
	fmt.Println("\n--- §3.2: reliability (MTTDL) ---")
	const block = 256 << 20
	p := reliability.DefaultParams()
	rep3, err := reliability.ReplicationSystem(3, block)
	if err != nil {
		return err
	}
	systems := []reliability.System{rep3}
	for _, c := range []ec.Code{rsc, pb, lc} {
		sys, err := reliability.CodeSystem(c, block)
		if err != nil {
			return err
		}
		systems = append(systems, sys)
	}
	fmt.Printf("paper   : MTTDL(Piggybacked-RS) >= MTTDL(RS); both >> replication per byte\n")
	fmt.Printf("%-22s %14s %10s\n", "system", "MTTDL (years)", "overhead")
	for _, sys := range systems {
		years, err := reliability.MTTDLYears(sys, p)
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %14.3g %9.1fx\n", sys.Name, years, sys.StorageOverhead)
	}
	return nil
}

func storageOverheads(rsc *rs.Code, pb *core.Code, lc *lrc.Code) {
	fmt.Println("\n--- §1/§2.1: storage overhead ---")
	fmt.Printf("paper   : (10,4) RS stores 1.4x vs 3x under replication\n")
	fmt.Printf("measured: rs=%.1fx piggybacked-rs=%.1fx lrc=%.1fx replication=3.0x\n",
		rsc.StorageOverhead(), pb.StorageOverhead(), lc.StorageOverhead())
}
