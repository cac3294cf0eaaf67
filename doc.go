// Package repro reproduces "A Solution to the Network Challenges of
// Data Recovery in Erasure-coded Distributed Storage Systems: A Study on
// the Facebook Warehouse Cluster" (Rashmi et al., HotStorage 2013).
//
// This is the map from the paper to the code. The root package
// declares nothing else (repolint's layering analyzer enforces it):
// programs and tests import the package that does the work.
//
// # The paper's quantities
//
// One row per quantity: the function that computes it, the programs
// that print it, and the benchmark in bench_test.go that reports it as
// a metric. One program prints the paper: `go run ./cmd/experiments`
// prints every row in one report. The examples under examples/ print
// the rows their API walk-throughs reach.
//
//	Quantity (paper)               Computed by                        Printed by                  Benchmark
//	Fig. 1   RS(2,2) repair moves  rs.Code.PlanRepair                 experiments                 BenchmarkFig1_RSRecoveryNetwork
//	         2 units
//	Fig. 2   (10,4) striping       ec.SplitShards + rs.Code.Encode    experiments                 BenchmarkFig2_StripeEncode
//	Fig. 3a  machines down/day     workload.Generate,                 experiments                 BenchmarkFig3a_UnavailabilityTrace
//	                               Trace.UnavailableSeries
//	Fig. 3b  blocks and cross-     sim.Study.Run                      experiments                 BenchmarkFig3b_RecoverySimulation
//	         rack bytes per day
//	§2.2     98.08/1.87/0.05%      sim.MissingBlockDistribution       experiments                 BenchmarkMissingBlockDistribution
//	         missing-block split
//	Fig. 4   toy (2,2) piggyback:  core.Code.PlanRepair,              experiments, toyexample     BenchmarkFig4_ToyPiggyback
//	         3 bytes, not 4        core.Code.ExecuteRepair
//	§3.1/2   ~30% less repair      ec.RepairFraction, core.Code.      experiments, quickstart,    BenchmarkSec32_DownloadSavings,
//	         download              AverageDataRepairFraction          degradedread                BenchmarkAblation_GroupSizing
//	§3.2     "close to fifty TB"   sim.Compare,                       experiments                 BenchmarkSec32_CrossRackReduction
//	         cross-rack per day    Comparison.DailySavingsBytes
//	§3.2     recovery time         cluster.BandwidthModel.            experiments                 BenchmarkSec32_RecoveryTime
//	                               RecoveryTime, sim.Result.
//	                               MeanRecoveryTimePerBlock
//	§3.2     MTTDL                 reliability.MTTDLYears             experiments                 BenchmarkSec32_MTTDL
//	§1/2.1   storage overhead      ec.Code.StorageOverhead            experiments, quickstart,    BenchmarkStorageOverhead,
//	         1.4x vs 3x                                               archival                    BenchmarkRelatedWork_LRC
//	§2.2     recovery backlog      sim.RecoveryBacklog                experiments                 BenchmarkBacklogUnderThrottle
//	         (extension)
//	§4       substripe layout:     layout.PlanGeometry                experiments                 BenchmarkAblation_SubstripeLayout
//	         disk bytes read
//	§5       regenerating-code     regenerating.RepairFractionBound,  experiments                 BenchmarkRelatedWork_CutSetBound
//	         bounds                regenerating.MBR
//
// A program named in the table is cmd/<name> or examples/<name>
// (doc_test.go checks that, and that every benchmark named exists).
// cmd/repolint and cmd/benchdiff (tooling) print no row. The
// remaining benchmarks in bench_test.go time the codecs (Encode_*,
// Reconstruct_*, RepairDataShard_*, ExecuteRepair_*,
// Ablation_VandermondeVsCauchy) and the repair engine (EngineRepair).
// Measured system performance comes from one program, `go run
// ./benchmark` (contract in BENCHMARK.json, see benchmark/README.md).
//
// # The layers
//
//   - GF(2^8) arithmetic and matrices: internal/gf256, internal/matrix.
//   - Checksums: internal/crc (CRC-32 of blocks and chunk tables).
//   - Codecs: internal/ec (the Code contract, repair and linear plans,
//     SplitShards/JoinShards), internal/rs, internal/core
//     (Piggybacked-RS), internal/lrc.
//   - Execution: internal/engine (batch encode/repair pool, Fold, the
//     rack-aware repair tree).
//   - Study: internal/workload (failure traces), internal/sim (study,
//     comparison, §2.2 distribution, backlog), internal/stats.
//   - Models: internal/cluster (topology, byte-accounting network,
//     bandwidth model), internal/reliability, internal/layout,
//     internal/regenerating.
//   - Storage: internal/hdfs (metadata plane, RaidNode, BlockFixer),
//     internal/extent (on-disk store), internal/cache.
//   - Serving: internal/serve (namenode and datanode daemons, client),
//     internal/repairmgr (repair control plane), internal/telemetry.
//   - Tooling: internal/analysis (repolint), benchmark, cmd/benchdiff.
package repro
