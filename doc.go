// Package repro is the public API of a full reproduction of
// "A Solution to the Network Challenges of Data Recovery in
// Erasure-coded Distributed Storage Systems: A Study on the Facebook
// Warehouse Cluster" (Rashmi et al., HotStorage 2013).
//
// The package exposes three layers:
//
//   - Codecs: NewRS (the production baseline), NewPiggybackedRS (the
//     paper's contribution — same storage, same fault tolerance, ~30%
//     cheaper single-block recovery) and NewLRC (the §5 related-work
//     baseline). All satisfy the Codec interface, including repair
//     planning (which byte ranges a recovery reads) and repair
//     execution over a caller-supplied fetch function.
//
//   - The measurement study: GenerateTrace builds a failure trace
//     calibrated to the paper's published statistics, RunStudy costs it
//     under a codec (Fig. 3a, Fig. 3b), CompareCodecs reproduces the
//     §3.2 projection ("close to fifty terabytes per day"), and
//     MissingBlockDistribution reproduces the §2.2 single-failure
//     dominance (98.08% / 1.87% / 0.05%).
//
//   - Substrates: NewMiniHDFS builds an in-process HDFS + HDFS-RAID
//     model with rack-aware placement, a RaidNode, a BlockFixer, and
//     degraded reads, all charging cross-rack traffic to a switch-level
//     network model; MTTDLYears implements the §3.2 reliability
//     analysis.
//
// The API surface is organised into one file per layer: codecs.go
// (codecs and shard helpers), engine.go (the concurrent execution
// engine and partial-sum fold trees), study.go (the measurement study,
// contention model, reliability, layout, and regenerating-code
// bounds), substrate.go (the MiniHDFS cluster substrate and the
// sharded metadata plane), serve_api.go (the networked serving layer),
// and controlplane.go (the autonomous repair control plane).
//
// Measured performance comes from one program: `go run ./benchmark`
// (six workloads on a live cluster, contract in BENCHMARK.json,
// compared across commits by `make benchdiff`; see benchmark/README.md).
// The Go benchmarks in bench_test.go and the internal packages
// regenerate the paper's figures and time single layers.
//
// # Execution engine
//
// All codec execution — encode, reconstruct, repair — runs on fused,
// cache-chunked GF(2^8) kernels (gf256.MulAddSlices): on amd64 with
// AVX2 a split-nibble VPSHUFB multiply-accumulate, 32 bytes a step, in
// Go assembly; everywhere else (and under the purego build tag) a
// byte-table kernel; plain XOR is crypto/subtle.XORBytes on every
// platform. The kernel is chosen once at start-up from CPUID, there is
// no option for it, and both produce identical bytes (internal/gf256
// holds each to a byte-at-a-time reference). Batches of stripe jobs
// run concurrently on the stripe-repair engine: NewEngine builds a
// bounded worker pool (EngineOptions.Parallelism) with per-worker
// scratch-buffer reuse; RunRepairs and RunEncodes execute batches with
// output byte-identical to serial execution. The
// BlockFixer of NewMiniHDFS routes its stripe repairs through the same
// engine (HDFSConfig.RepairParallelism). BenchmarkEngineRepair measures
// batch repair throughput serial versus engine-parallel, and the
// benchmark's node_repair workload measures it end to end.
//
// # Repair data path
//
// A single-block repair, for all three codecs, is one evaluation of the
// codec's LinearPlan (ec.EvaluateLinearPlan): touching ranges of one
// helper are fetched as one read, fetch lengths are validated, and each
// target segment is folded with one fused multiply-accumulate pass over
// views of the fetched buffers. The BlockFixer reads each helper block
// once per repair, straight into its engine worker's pooled buffer, and
// verifies the checksum there. That closed most of the gap between the
// GF(2^8) kernel and the fixer (it was parity over-decode, whole-block
// read amplification and per-fetch allocation); the vector kernel then
// took the fold itself from 31% of node_repair's CPU to 6%
// (gf256.muladd_mbps 3.2 -> 27.6 GB/s, node_repair 184 -> 268 MB/s). What
// remains is I/O: pread, the whole-payload CRC that forces a full-block
// read per helper, and pwrite.
// README.md ("Repair data path") has the numbers.
//
// # Contention model
//
// The analytic study costs each repair in isolation; the contention
// layer costs them against each other. CompareContentionCodecs replays
// a trace through an event-driven fluid-flow fabric (NIC, TOR, and
// aggregation-switch capacities in ContentionConfig.Topology; max-min
// fair sharing with priority classes) behind a repair scheduler
// (PolicyFIFO, PolicySmallestFirst, PolicyPriorityLanes) while
// closed-loop foreground map-reduce load keeps the core saturated,
// yielding p50/p99 repair latency and degraded-read slowdown per codec.
// cmd/repaircost -contention prints the RS versus Piggybacked-RS
// head-to-head (deterministic for a fixed seed), and a MiniHDFS
// configured with HDFSConfig.Fabric timestamps its BlockFixer passes
// through the same model.
//
// # Serving layer
//
// The contention model simulates load; the serving layer serves it.
// StartServeSystem brings the MiniHDFS up as a real networked service
// on localhost TCP — a namenode daemon for metadata/placement/fixer
// control and one datanode daemon per machine for replica range reads,
// speaking a small framed RPC protocol — and DialServe returns a
// client whose read path transparently falls back to degraded reads:
// when a block's holder is gone (or dies mid-transfer), the client
// fetches the stripe layout, downloads the codec's repair-plan ranges
// from the surviving datanodes, and reconstructs the block locally.
// The benchmark drives closed-loop clients against exactly this
// system: its healthy_read, small_read, hot_read, degraded_read and
// ingest_mixed workloads report client-visible goodput and latency.
//
// # Partial-sum repair
//
// Conventional repair concentrates the whole recovery download on the
// reconstructing node's NIC — the paper's bottleneck. Because every
// codec here is linear over GF(2^8), each repair is a LinearPlan (helper
// range × coefficient → target offset), and one fold runs it
// (internal/engine Fold: a node's terms evaluated and XORed with its
// children's partial sums) in two shapes over two transports. One node
// holding every term is the conventional fan-in. PlanAggregationTree
// lays the plan out as a rack-aware tree instead (intra-rack helpers
// fold at one local aggregator before crossing the TOR; rack aggregators
// fold pairwise) and every helper forwards ONE block-sized buffer: over
// the wire as a dn.partial RPC (DialServe with WithPartialSumRepair), in
// process in the BlockFixer behind HDFSConfig.PartialSumRepair, and as
// the tree's hops in the contention model behind
// ContentionConfig.PartialSums (cmd/repaircost -contention). Fold is
// also what ROADMAP item 4's dn.repair destination datanode will call.
//
// # The metadata plane
//
// A MiniHDFS is HDFSConfig.Shards independent metadata shards — one by
// default, which is the paper's single namenode — over one physical
// plane (datanodes plus the switch-level network). One shard serialises
// every metadata mutation behind one lock: right for the paper's repair
// studies, a bottleneck for many-files serving workloads, which set
// Shards higher. Either way it is the same type running the same code:
// files route to shards by a seeded consistent hash of their parent
// directory (stable across restarts, and keeping each directory subtree
// shard-local), block and stripe IDs are minted strided so id→shard
// routing is arithmetic, and each shard owns its own lock, rng,
// block-fixer pass, and scrubber cursor. Operations that span shards —
// FixStripes, ReReplicateBlocks, MachineInventory, machine death —
// reach every shard and merge; merged fixer reports measure cross-rack
// traffic once around the whole fan-out so the shared fabric is never
// double-counted. Serving and the repair control plane consume only
// the Metadata / MetadataView / RepairOps / AdminOps / ShardRouter
// interfaces, never the concrete type.
package repro
