// The execution engine: concurrent batch encode/repair over a bounded
// worker pool, and the rack-aware partial-sum aggregation trees that
// migrate repair arithmetic into the helpers.

package repro

import "repro/internal/engine"

// --- Concurrent stripe-repair engine ---------------------------------

// Engine executes batches of encode/repair jobs across a bounded
// worker pool with per-worker scratch-buffer reuse. Results are
// byte-identical to serial execution at any parallelism.
type Engine = engine.Engine

// EngineOptions configures an Engine: Parallelism bounds concurrent
// jobs (0 = GOMAXPROCS).
type EngineOptions = engine.Options

// RepairJob asks the engine to reconstruct the missing shards of one
// stripe through the codec's planned reads.
type RepairJob = engine.RepairJob

// RepairResult is the per-job outcome of an engine repair batch.
type RepairResult = engine.RepairResult

// EncodeJob asks the engine to compute one stripe's parity shards.
type EncodeJob = engine.EncodeJob

// FetchIntoFunc retrieves a planned byte range into an engine-pooled
// buffer, eliminating per-read allocations in long repair batches.
type FetchIntoFunc = engine.FetchIntoFunc

// EngineScratch is a worker's arena of reusable buffers, handed to
// every closure of Engine.RunTasks and reset when the closure returns.
type EngineScratch = engine.Scratch

// NewEngine builds a concurrent stripe-execution engine.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// --- Partial-sum aggregation trees -------------------------------------

// AggregationNode is one helper of a partial-sum fold tree: local
// multiply-accumulates plus child subtrees whose folded buffers it
// XORs in.
type AggregationNode = engine.AggNode

// AggregationPlan is a planned partial-sum repair: a rack-aware fold
// tree whose root produces the repaired shard.
type AggregationPlan = engine.AggPlan

// PlanAggregationTree turns a codec's linear repair plan plus a
// placement (shard → machine, machine → rack) into the rack-aware fold
// tree of partial-sum repair: intra-rack helpers chain into one local
// aggregator (one buffer per TOR crossing), rack aggregators fold in a
// balanced binary tree. ok == false marks a phantom (all-zero) shard; a
// plan that reads nothing else yields a tree with a nil Root.
func PlanAggregationTree(plan *LinearPlan, machineOf func(shard int) (machine int, ok bool), rackOf func(machine int) int) (*AggregationPlan, error) {
	return engine.PlanRepairTree(plan, func(shard int) (m int, ok bool, err error) { m, ok = machineOf(shard); return }, rackOf)
}
