// Benchmark harness: one benchmark per figure, table, or quantitative
// claim of the paper (doc.go maps each one to the paper), plus
// codec throughput and design-ablation benches. Figures' headline
// quantities are attached to the benchmark output via ReportMetric, so
// `go test -bench=.` regenerates the paper's numbers alongside timings.
package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/engine"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/regenerating"
	"repro/internal/reliability"
	"repro/internal/rs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// --- Fig. 1: recovery amplification of a (2,2) RS stripe ---------------

func BenchmarkFig1_RSRecoveryNetwork(b *testing.B) {
	code, err := rs.New(2, 2)
	if err != nil {
		b.Fatal(err)
	}
	var units int64
	for i := 0; i < b.N; i++ {
		plan, err := code.PlanRepair(0, 1, ec.AllAliveExcept(0))
		if err != nil {
			b.Fatal(err)
		}
		units = plan.TotalBytes()
	}
	// Paper: one lost unit moves 2 units through the TOR/AS switches.
	b.ReportMetric(float64(units), "units_transferred")
}

// --- Fig. 2: (10,4) stripe encoding ------------------------------------

func BenchmarkFig2_StripeEncode(b *testing.B) {
	code, err := rs.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	const shard = 1 << 20 // 1 MiB shards stand in for the 256 MB blocks
	shards := make([][]byte, 14)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		shards[i] = make([]byte, shard)
		rng.Read(shards[i])
	}
	b.SetBytes(10 * shard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := code.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 3a: machine unavailability trace ------------------------------

func BenchmarkFig3a_UnavailabilityTrace(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.Days = 34 // the paper's 22 Jan - 24 Feb window
	var median float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		tr, err := workload.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		median = stats.Median(stats.IntsToFloats(tr.UnavailableSeries()))
	}
	// Paper: median > 50 machine-unavailability events per day.
	b.ReportMetric(median, "median_events/day")
}

// --- §2.2 item 2: missing blocks per affected stripe --------------------

func BenchmarkMissingBlockDistribution(b *testing.B) {
	cfg := sim.DefaultStripeFailureConfig()
	cfg.Stripes = 50000
	cfg.Windows = 2
	var single float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		dist, err := sim.MissingBlockDistribution(cfg)
		if err != nil {
			b.Fatal(err)
		}
		single = dist.Fraction(1)
	}
	// Paper: 98.08% of affected stripes have exactly one block missing.
	b.ReportMetric(100*single, "pct_single_failure")
}

// --- Fig. 3b: blocks reconstructed and cross-rack bytes per day ---------

func BenchmarkFig3b_RecoverySimulation(b *testing.B) {
	code, err := rs.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.Days = 24 // the paper's measurement window
	tr, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var blocks, tb float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.NewStudy(code).Run(tr)
		if err != nil {
			b.Fatal(err)
		}
		blocks = res.MedianBlocksPerDay
		tb = res.MedianCrossRackBytes / float64(stats.TB)
	}
	// Paper: medians of 95,500 blocks/day and >180 TB/day.
	b.ReportMetric(blocks, "median_blocks/day")
	b.ReportMetric(tb, "median_TB/day")
}

// --- Fig. 4 / Example 1: the toy (2,2) piggybacked code -----------------

func BenchmarkFig4_ToyPiggyback(b *testing.B) {
	code, err := core.New(2, 2)
	if err != nil {
		b.Fatal(err)
	}
	shards := [][]byte{{1, 2}, {3, 4}, nil, nil}
	if err := code.Encode(shards); err != nil {
		b.Fatal(err)
	}
	fetch := func(req ec.ReadRequest) ([]byte, error) {
		return shards[req.Shard][req.Offset : req.Offset+req.Length], nil
	}
	var downloaded int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := code.PlanRepair(0, 2, ec.AllAliveExcept(0))
		if err != nil {
			b.Fatal(err)
		}
		downloaded = plan.TotalBytes()
		if _, err := code.ExecuteRepair(0, 2, ec.AllAliveExcept(0), fetch); err != nil {
			b.Fatal(err)
		}
	}
	// Paper: 3 bytes downloaded instead of 4.
	b.ReportMetric(float64(downloaded), "bytes_downloaded")
}

// --- §3.1/§3.2: single-block recovery savings ---------------------------

func BenchmarkSec32_DownloadSavings(b *testing.B) {
	code, err := core.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	var avgAll, avgData float64
	for i := 0; i < b.N; i++ {
		_, avg, err := ec.RepairFraction(code, 256<<20)
		if err != nil {
			b.Fatal(err)
		}
		avgAll = avg
		avgData = code.AverageDataRepairFraction()
	}
	// Paper: ~30% average savings for single block failures.
	b.ReportMetric(100*(1-avgData), "pct_saved_data_blocks")
	b.ReportMetric(100*(1-avgAll), "pct_saved_all_blocks")
}

// --- §3.2: projected cross-rack traffic reduction -----------------------

func BenchmarkSec32_CrossRackReduction(b *testing.B) {
	rsc, err := rs.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	pb, err := core.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.Days = 24
	tr, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var savedTB float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := sim.Compare(rsc, pb, tr)
		if err != nil {
			b.Fatal(err)
		}
		savedTB = cmp.DailySavingsBytes() / float64(stats.TB)
	}
	// Paper: "close to fifty terabytes" saved per day.
	b.ReportMetric(savedTB, "TB_saved/day")
}

// --- §3.2: recovery time -------------------------------------------------

func BenchmarkSec32_RecoveryTime(b *testing.B) {
	model := cluster.DefaultBandwidthModel()
	rsc, err := rs.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	pb, err := core.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	const block = int64(256 << 20)
	var ratio float64
	for i := 0; i < b.N; i++ {
		rsPlan, err := rsc.PlanRepair(0, block, ec.AllAliveExcept(0))
		if err != nil {
			b.Fatal(err)
		}
		pbPlan, err := pb.PlanRepair(0, block, ec.AllAliveExcept(0))
		if err != nil {
			b.Fatal(err)
		}
		rsT := model.RecoveryTime(rsPlan.TotalBytes(), rsPlan.MaxPerSource())
		pbT := model.RecoveryTime(pbPlan.TotalBytes(), pbPlan.MaxPerSource())
		ratio = pbT.Seconds() / rsT.Seconds()
	}
	// Paper: more helpers but fewer bytes => recovery no slower.
	b.ReportMetric(ratio, "pb_vs_rs_time_ratio")
}

// --- §3.2: MTTDL ---------------------------------------------------------

func BenchmarkSec32_MTTDL(b *testing.B) {
	rsc, err := rs.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	pb, err := core.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	p := reliability.DefaultParams()
	var gain float64
	for i := 0; i < b.N; i++ {
		rsSys, err := reliability.CodeSystem(rsc, 256<<20)
		if err != nil {
			b.Fatal(err)
		}
		pbSys, err := reliability.CodeSystem(pb, 256<<20)
		if err != nil {
			b.Fatal(err)
		}
		rsY, err := reliability.MTTDLYears(rsSys, p)
		if err != nil {
			b.Fatal(err)
		}
		pbY, err := reliability.MTTDLYears(pbSys, p)
		if err != nil {
			b.Fatal(err)
		}
		gain = pbY / rsY
	}
	// Paper: MTTDL of Piggybacked-RS exceeds RS.
	b.ReportMetric(gain, "mttdl_gain_x")
}

// --- §1/§2.1: storage overhead -------------------------------------------

func BenchmarkStorageOverhead(b *testing.B) {
	rsc, err := rs.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	pb, err := core.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	var rsO, pbO float64
	for i := 0; i < b.N; i++ {
		rsO = rsc.StorageOverhead()
		pbO = pb.StorageOverhead()
	}
	// Paper: 1.4x for both (storage optimality preserved), vs 3x
	// replication.
	b.ReportMetric(rsO, "rs_overhead_x")
	b.ReportMetric(pbO, "pbrs_overhead_x")
}

// --- §5: LRC comparison ----------------------------------------------------

func BenchmarkRelatedWork_LRC(b *testing.B) {
	lc, err := lrc.New(10, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	var avg float64
	for i := 0; i < b.N; i++ {
		_, a, err := ec.RepairFraction(lc, 256<<20)
		if err != nil {
			b.Fatal(err)
		}
		avg = a
	}
	// Paper (§5): LRC repairs cheaper but is not storage optimal.
	b.ReportMetric(100*(1-avg), "pct_saved")
	b.ReportMetric(lc.StorageOverhead(), "overhead_x")
}

// --- Codec throughput ------------------------------------------------------

func benchEncode(b *testing.B, code ec.Code, shardSize int) {
	shards := make([][]byte, code.TotalShards())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < code.DataShards(); i++ {
		shards[i] = make([]byte, shardSize)
		rng.Read(shards[i])
	}
	b.SetBytes(int64(code.DataShards() * shardSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := code.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode_RS_10_4(b *testing.B) {
	code, err := rs.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	benchEncode(b, code, 1<<20)
}

func BenchmarkEncode_PiggybackedRS_10_4(b *testing.B) {
	code, err := core.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	benchEncode(b, code, 1<<20)
}

func BenchmarkEncode_LRC_10_4_2(b *testing.B) {
	code, err := lrc.New(10, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	benchEncode(b, code, 1<<20)
}

func benchReconstruct(b *testing.B, code ec.Code, erase []int, shardSize int) {
	shards := make([][]byte, code.TotalShards())
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < code.DataShards(); i++ {
		shards[i] = make([]byte, shardSize)
		rng.Read(shards[i])
	}
	if err := code.Encode(shards); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(erase) * shardSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work := make([][]byte, len(shards))
		copy(work, shards)
		for _, e := range erase {
			work[e] = nil
		}
		b.StartTimer()
		if err := code.Reconstruct(work); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct_RS_4of14(b *testing.B) {
	code, err := rs.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	benchReconstruct(b, code, []int{0, 3, 10, 13}, 1<<20)
}

func BenchmarkReconstruct_PiggybackedRS_4of14(b *testing.B) {
	code, err := core.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	benchReconstruct(b, code, []int{0, 3, 10, 13}, 1<<20)
}

func benchRepair(b *testing.B, code ec.Code, idx, shardSize int) {
	shards := make([][]byte, code.TotalShards())
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < code.DataShards(); i++ {
		shards[i] = make([]byte, shardSize)
		rng.Read(shards[i])
	}
	if err := code.Encode(shards); err != nil {
		b.Fatal(err)
	}
	fetch := func(req ec.ReadRequest) ([]byte, error) {
		return shards[req.Shard][req.Offset : req.Offset+req.Length], nil
	}
	plan, err := code.PlanRepair(idx, int64(shardSize), ec.AllAliveExcept(idx))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(plan.TotalBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.ExecuteRepair(idx, int64(shardSize), ec.AllAliveExcept(idx), fetch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRepairDataShard_RS(b *testing.B) {
	code, err := rs.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	benchRepair(b, code, 0, 1<<20)
}

func BenchmarkRepairDataShard_PiggybackedRS(b *testing.B) {
	code, err := core.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	benchRepair(b, code, 0, 1<<20)
}

func BenchmarkRepairDataShard_LRC(b *testing.B) {
	code, err := lrc.New(10, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	benchRepair(b, code, 0, 1<<20)
}

// --- The repair executor, one block at a time ---------------------------------
//
// BenchmarkExecuteRepair_<codec>_<Data|Parity> rebuilds one 64 KiB shard
// (the node_repair workload's block size) from memory through the
// codec's ExecuteRepair: MB/s is repaired bytes per second, allocs/op
// the executor's own (the fetch hands out views, as a pooled read path
// does). Data vs Parity shows what the generic decode used to cost a
// parity target — it rebuilt every missing shard to keep one — without
// standing up a cluster.

var repairSink []byte

func benchExecuteRepair(b *testing.B, code ec.Code, idx int) {
	const shardSize = 64 << 10
	shards := make([][]byte, code.TotalShards())
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < code.DataShards(); i++ {
		shards[i] = make([]byte, shardSize)
		rng.Read(shards[i])
	}
	if err := code.Encode(shards); err != nil {
		b.Fatal(err)
	}
	fetch := func(req ec.ReadRequest) ([]byte, error) {
		return shards[req.Shard][req.Offset : req.Offset+req.Length], nil
	}
	alive := ec.AllAliveExcept(idx)
	b.SetBytes(shardSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := code.ExecuteRepair(idx, shardSize, alive, fetch)
		if err != nil {
			b.Fatal(err)
		}
		repairSink = out
	}
}

// repairBenchCodec builds one codec family at the paper's parameters.
func repairBenchCodec(b *testing.B, family string) ec.Code {
	var (
		code ec.Code
		err  error
	)
	switch family {
	case "rs":
		code, err = rs.New(10, 4)
	case "pbrs":
		code, err = core.New(10, 4)
	case "lrc":
		code, err = lrc.New(10, 4, 2)
	}
	if err != nil {
		b.Fatal(err)
	}
	return code
}

func BenchmarkExecuteRepair_RS_Data(b *testing.B) {
	benchExecuteRepair(b, repairBenchCodec(b, "rs"), 0)
}
func BenchmarkExecuteRepair_RS_Parity(b *testing.B) {
	benchExecuteRepair(b, repairBenchCodec(b, "rs"), 13)
}
func BenchmarkExecuteRepair_PiggybackedRS_Data(b *testing.B) {
	benchExecuteRepair(b, repairBenchCodec(b, "pbrs"), 0)
}
func BenchmarkExecuteRepair_PiggybackedRS_Parity(b *testing.B) {
	benchExecuteRepair(b, repairBenchCodec(b, "pbrs"), 13)
}
func BenchmarkExecuteRepair_LRC_Data(b *testing.B) {
	benchExecuteRepair(b, repairBenchCodec(b, "lrc"), 0)
}
func BenchmarkExecuteRepair_LRC_Parity(b *testing.B) {
	benchExecuteRepair(b, repairBenchCodec(b, "lrc"), 13)
}

// --- Ablation: piggyback group sizing ---------------------------------------

// The default grouping for (10,4) is {4,3,3}. This ablation quantifies
// how alternative groupings trade per-shard savings against coverage.
func BenchmarkAblation_GroupSizing(b *testing.B) {
	groupings := map[string][][]int{
		"balanced_4_3_3":   {{0, 1, 2, 3}, {4, 5, 6}, {7, 8, 9}},
		"singletons_1_1_1": {{0}, {1}, {2}},
		"one_big_group":    {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		"pairs_2_2_2":      {{0, 1}, {2, 3}, {4, 5}},
	}
	for name, groups := range groupings {
		b.Run(name, func(b *testing.B) {
			code, err := core.New(10, 4, core.WithGroups(groups))
			if err != nil {
				b.Fatal(err)
			}
			var avg float64
			for i := 0; i < b.N; i++ {
				_, a, err := ec.RepairFraction(code, 4096)
				if err != nil {
					b.Fatal(err)
				}
				avg = a
			}
			b.ReportMetric(100*(1-avg), "pct_saved_all_blocks")
		})
	}
}

// --- §2.2 extension: recovery backlog under a throttle ----------------------

func BenchmarkBacklogUnderThrottle(b *testing.B) {
	rsc, err := rs.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	pb, err := core.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.Days = 24
	tr, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cmp, err := sim.Compare(rsc, pb, tr)
	if err != nil {
		b.Fatal(err)
	}
	var rsSat, pbSat float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		budget := int64(170 * stats.TB)
		rsBL, err := sim.RecoveryBacklog(cmp.Baseline, budget)
		if err != nil {
			b.Fatal(err)
		}
		pbBL, err := sim.RecoveryBacklog(cmp.Candidate, budget)
		if err != nil {
			b.Fatal(err)
		}
		rsSat = float64(rsBL.SaturatedDays)
		pbSat = float64(pbBL.SaturatedDays)
	}
	b.ReportMetric(rsSat, "rs_saturated_days")
	b.ReportMetric(pbSat, "pbrs_saturated_days")
}

// --- Ablation: on-disk substripe layout (§4 / hop-and-couple) ---------------

func BenchmarkAblation_SubstripeLayout(b *testing.B) {
	pb, err := core.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	const block = int64(256 << 20)
	plan, err := pb.PlanRepair(0, block, ec.AllAliveExcept(0))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []layout.Kind{layout.Coupled, layout.Interleaved} {
		b.Run(k.String(), func(b *testing.B) {
			var disk int64
			for i := 0; i < b.N; i++ {
				_, d, err := layout.PlanGeometry(k, plan)
				if err != nil {
					b.Fatal(err)
				}
				disk = d
			}
			// RS baseline disk read is 10 blocks = 2560 MB.
			b.ReportMetric(float64(disk)/float64(block), "disk_blocks_read")
		})
	}
}

// --- §5: distance to the regenerating-code floor ----------------------------

func BenchmarkRelatedWork_CutSetBound(b *testing.B) {
	pb, err := core.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	var captured float64
	for i := 0; i < b.N; i++ {
		msr, err := regenerating.RepairFractionBound(regenerating.Params{N: 14, K: 10, D: 13})
		if err != nil {
			b.Fatal(err)
		}
		captured = (1 - pb.AverageDataRepairFraction()) / (1 - msr)
	}
	b.ReportMetric(100*captured, "pct_of_possible_saving")
}

// --- Ablation: generator construction ---------------------------------------

func BenchmarkAblation_VandermondeVsCauchy(b *testing.B) {
	for _, variant := range []string{"vandermonde", "cauchy"} {
		b.Run(variant, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if variant == "cauchy" {
					_, err = rs.New(10, 4, rs.WithCauchy())
				} else {
					_, err = rs.New(10, 4)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Concurrent stripe-repair engine ------------------------------------

// benchEngineRepair measures multi-stripe batch repair throughput at a
// given engine parallelism. Throughput counts repaired shard bytes; the
// speedup of par=GOMAXPROCS over par=1 is the engine's scaling
// headroom on the host.
func benchEngineRepair(b *testing.B, code ec.Code, parallelism int) {
	const shardSize = 128 << 10
	const stripes = 16
	rng := rand.New(rand.NewSource(11))
	batch := make([]engine.RepairJob, stripes)
	for s := 0; s < stripes; s++ {
		shards := make([][]byte, code.TotalShards())
		for i := 0; i < code.DataShards(); i++ {
			shards[i] = make([]byte, shardSize)
			rng.Read(shards[i])
		}
		if err := code.Encode(shards); err != nil {
			b.Fatal(err)
		}
		missing := s % code.DataShards()
		held := shards
		batch[s] = engine.RepairJob{
			Code:      code,
			Missing:   []int{missing},
			ShardSize: shardSize,
			Alive:     ec.AllAliveExcept(missing),
			FetchInto: func(req ec.ReadRequest, dst []byte) error {
				copy(dst, held[req.Shard][req.Offset:req.Offset+req.Length])
				return nil
			},
		}
	}
	eng := engine.New(engine.Options{Parallelism: parallelism})
	b.SetBytes(stripes * shardSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, res := range eng.RunRepairs(batch) {
			if res.Err != nil {
				b.Fatalf("job %d: %v", j, res.Err)
			}
		}
	}
}

func BenchmarkEngineRepair(b *testing.B) {
	rsc, err := rs.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	pb, err := core.New(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	lc, err := lrc.New(10, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	pars := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		pars = append(pars, p)
	}
	for _, entry := range []struct {
		name string
		code ec.Code
	}{{"rs", rsc}, {"pbrs", pb}, {"lrc", lc}} {
		for _, par := range pars {
			b.Run(fmt.Sprintf("%s/par=%d", entry.name, par), func(b *testing.B) {
				benchEngineRepair(b, entry.code, par)
			})
		}
	}
}
