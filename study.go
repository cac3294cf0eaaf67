// The simulation/analysis layer: the paper's measurement study over
// generated failure traces, the contention-aware network simulation,
// the §3.2 reliability (MTTDL) model, the §4 on-disk substripe layout,
// and the §5 regenerating-code bounds.

package repro

import (
	"repro/internal/layout"
	"repro/internal/netsim"
	"repro/internal/regenerating"
	"repro/internal/reliability"
	"repro/internal/sim"
	"repro/internal/workload"
)

// --- Measurement study -----------------------------------------------

// TraceConfig parameterises failure-trace generation; see
// DefaultTraceConfig for the paper-calibrated values.
type TraceConfig = workload.Config

// Trace is a generated multi-day failure trace.
type Trace = workload.Trace

// StudyResult is the outcome of costing a trace under one codec: the
// Fig. 3a and Fig. 3b day series with their medians.
type StudyResult = sim.Result

// Comparison is a head-to-head costing of two codecs on one trace.
type Comparison = sim.Comparison

// DefaultTraceConfig returns the configuration calibrated to the
// paper's published statistics (median 55 events/day, 95,500 blocks/day,
// >180 TB/day under (10,4) RS).
func DefaultTraceConfig() TraceConfig { return workload.DefaultConfig() }

// GenerateTrace builds a deterministic failure trace.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return workload.Generate(cfg) }

// RunStudy costs the trace under the codec, reproducing the Fig. 3
// measurements for that code.
func RunStudy(c Codec, tr *Trace) (*StudyResult, error) { return sim.NewStudy(c).Run(tr) }

// CompareCodecs costs the same trace under a baseline and a candidate —
// the §3.2 projection when called with RS and Piggybacked-RS.
func CompareCodecs(baseline, candidate Codec, tr *Trace) (*Comparison, error) {
	return sim.Compare(baseline, candidate, tr)
}

// BacklogResult is the outcome of throttled recovery queueing over a
// study result.
type BacklogResult = sim.BacklogResult

// RecoveryBacklog runs a day-granularity fluid queue over a study
// result with a daily recovery-bandwidth budget, modelling the §2.2
// contention between recovery and foreground map-reduce traffic.
func RecoveryBacklog(res *StudyResult, budgetBytesPerDay int64) (*BacklogResult, error) {
	return sim.RecoveryBacklog(res, budgetBytesPerDay)
}

// --- Contention-aware network simulation -------------------------------

// SchedulerPolicy selects how the contention model's repair scheduler
// orders its queue.
type SchedulerPolicy = netsim.Policy

// Scheduler policies: FIFO admission, smallest-plan-first, or priority
// lanes in which degraded reads preempt background repairs.
const (
	PolicyFIFO          = netsim.PolicyFIFO
	PolicySmallestFirst = netsim.PolicySmallestFirst
	PolicyPriorityLanes = netsim.PolicyPriorityLanes
)

// ContentionConfig parameterises a contention study: fabric, scheduler
// policy, repair concurrency, sampling density, and foreground load.
type ContentionConfig = sim.ContentionConfig

// ContentionResult is the distributional outcome of a contention study:
// p50/p99 repair latency and degraded-read slowdown under load.
type ContentionResult = sim.ContentionResult

// ContentionComparison is a head-to-head contention costing of two
// codecs on the identical trace and foreground process.
type ContentionComparison = sim.ContentionComparison

// DefaultContentionConfig returns a saturating-load configuration that
// runs in seconds.
func DefaultContentionConfig() ContentionConfig { return sim.DefaultContentionConfig() }

// CompareContentionCodecs runs the contention study for a baseline and
// a candidate codec over the same trace, foreground process, and
// placement stream — the §2.2 operational claim, measured.
func CompareContentionCodecs(baseline, candidate Codec, tr *Trace, cfg ContentionConfig) (*ContentionComparison, error) {
	return sim.CompareContention(baseline, candidate, tr, cfg)
}

// StripeFailureConfig parameterises the §2.2 concurrent-failure
// measurement.
type StripeFailureConfig = sim.StripeFailureConfig

// FailureDistribution is the §2.2 result: the distribution of
// missing-block counts over affected stripes.
type FailureDistribution = sim.Distribution

// DefaultStripeFailureConfig returns the calibration reproducing the
// paper's 98.08% / 1.87% / 0.05% split.
func DefaultStripeFailureConfig() StripeFailureConfig { return sim.DefaultStripeFailureConfig() }

// MissingBlockDistribution measures how many blocks of an affected
// stripe are missing concurrently.
func MissingBlockDistribution(cfg StripeFailureConfig) (*FailureDistribution, error) {
	return sim.MissingBlockDistribution(cfg)
}

// --- Reliability (§3.2) ----------------------------------------------

// ReliabilitySystem describes one redundancy scheme for the MTTDL model.
type ReliabilitySystem = reliability.System

// ReliabilityParams are the failure/repair rates of the MTTDL model.
type ReliabilityParams = reliability.Params

// ReplicationSystem models n-way replication for the MTTDL comparison.
func ReplicationSystem(replicas int, blockBytes float64) (ReliabilitySystem, error) {
	return reliability.ReplicationSystem(replicas, blockBytes)
}

// CodeSystem models an erasure codec for the MTTDL comparison, with
// repair rate derived from the codec's own repair plans.
func CodeSystem(c Codec, blockBytes float64) (ReliabilitySystem, error) {
	return reliability.CodeSystem(c, blockBytes)
}

// DefaultReliabilityParams returns rates typical of the measured
// cluster.
func DefaultReliabilityParams() ReliabilityParams { return reliability.DefaultParams() }

// MTTDLYears returns the mean time to data loss, in years, of a stripe
// under the given system and rates.
func MTTDLYears(sys ReliabilitySystem, p ReliabilityParams) (float64, error) {
	return reliability.MTTDLYears(sys, p)
}

// --- On-disk substripe layout (§4 / Hitchhiker's hop-and-couple) --------

// LayoutKind selects how the two substripes of a piggybacked block are
// placed on disk.
type LayoutKind = layout.Kind

// Layout kinds: Coupled keeps each substripe contiguous (half-shard
// repair reads are single ranges); Interleaved alternates bytes and
// amplifies half-reads to whole blocks.
const (
	LayoutCoupled     = layout.Coupled
	LayoutInterleaved = layout.Interleaved
)

// PlanDiskGeometry returns how many contiguous ranges and physical
// bytes a repair plan's helpers read from disk under the layout.
// Network bytes are layout-independent; disk bytes are not — the reason
// the coupled layout ships.
func PlanDiskGeometry(k LayoutKind, plan *RepairPlan) (ranges int, diskBytes int64, err error) {
	return layout.PlanGeometry(k, plan)
}

// --- Regenerating-code bounds (§5 related work) -------------------------

// RegeneratingParams identifies a point of the regenerating-codes model
// cited in the paper's related work: n nodes, k sufficient for the
// file, d helpers per repair.
type RegeneratingParams = regenerating.Params

// RegeneratingPoint is one storage/repair-bandwidth trade-off point.
type RegeneratingPoint = regenerating.Point

// MBRPoint returns the minimum-bandwidth regenerating point — the
// absolute repair-download floor, paid for with extra storage.
func MBRPoint(fileBytes float64, p RegeneratingParams) (RegeneratingPoint, error) {
	return regenerating.MBR(fileBytes, p)
}

// MSRRepairFraction returns the cut-set floor on single-failure repair
// download, as a fraction of the stripe's data size (0.325 for the
// paper's (10,4) with 13 helpers).
func MSRRepairFraction(p RegeneratingParams) (float64, error) {
	return regenerating.RepairFractionBound(p)
}
