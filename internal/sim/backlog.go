// Recovery backlog model.
//
// §2.2 closes with the operational consequence of recovery traffic: it
// "consumes a large amount of cross-rack bandwidth, thereby rendering
// the bandwidth unavailable for the foreground map-reduce jobs", and
// the increased network load is "the primary deterrent" to erasure-
// coding more data. Clusters therefore throttle recovery to a bandwidth
// budget; what the budget cannot absorb queues as backlog, and backlog
// is exposure — more time spent with stripes in degraded state.
//
// This file runs a day-granularity fluid queue over a Study result:
// each day's recovery bytes arrive, the budget drains what it can,
// the remainder carries over. Comparing the RS and Piggybacked-RS
// backlogs on the same trace shows the second-order benefit of cheaper
// repairs: not just fewer bytes, but less queueing and fewer saturated
// days at any given throttle.
package sim

import (
	"errors"
)

// BacklogDay is one day of the recovery queue.
type BacklogDay struct {
	// Day is the day index.
	Day int
	// ArrivedBytes is the recovery traffic generated this day.
	ArrivedBytes int64
	// ProcessedBytes is what the budget drained this day (arrivals plus
	// carried backlog, capped by the budget).
	ProcessedBytes int64
	// BacklogBytes is the queue carried into the next day.
	BacklogBytes int64
	// Utilization is ProcessedBytes over the budget: 1.0 means the
	// throttle was saturated all day.
	Utilization float64
}

// BacklogResult summarises the queue over the whole trace.
type BacklogResult struct {
	Days []BacklogDay
	// BudgetBytesPerDay is the throttle applied.
	BudgetBytesPerDay int64
	// PeakBacklogBytes is the largest end-of-day queue.
	PeakBacklogBytes int64
	// SaturatedDays counts days the throttle ran at 100%.
	SaturatedDays int
	// DrainDays is the number of days with a non-empty queue at day end
	// — days on which some stripe waited in degraded state because of
	// bandwidth, not because of decoding.
	DrainDays int
	// MeanUtilization averages daily utilization.
	MeanUtilization float64
}

// RecoveryBacklog runs the fluid queue over a study result with the
// given daily recovery-bandwidth budget.
func RecoveryBacklog(res *Result, budgetBytesPerDay int64) (*BacklogResult, error) {
	if res == nil || len(res.Days) == 0 {
		return nil, errors.New("sim: empty study result")
	}
	if budgetBytesPerDay <= 0 {
		return nil, errors.New("sim: budget must be positive")
	}
	out := &BacklogResult{
		Days:              make([]BacklogDay, len(res.Days)),
		BudgetBytesPerDay: budgetBytesPerDay,
	}
	var backlog int64
	var utilSum float64
	for i, d := range res.Days {
		queue := backlog + d.CrossRackBytes
		processed := queue
		if processed > budgetBytesPerDay {
			processed = budgetBytesPerDay
		}
		backlog = queue - processed
		util := float64(processed) / float64(budgetBytesPerDay)
		out.Days[i] = BacklogDay{
			Day:            d.Day,
			ArrivedBytes:   d.CrossRackBytes,
			ProcessedBytes: processed,
			BacklogBytes:   backlog,
			Utilization:    util,
		}
		if backlog > out.PeakBacklogBytes {
			out.PeakBacklogBytes = backlog
		}
		if processed == budgetBytesPerDay {
			out.SaturatedDays++
		}
		if backlog > 0 {
			out.DrainDays++
		}
		utilSum += util
	}
	out.MeanUtilization = utilSum / float64(len(res.Days))
	return out, nil
}
