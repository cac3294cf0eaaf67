package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rs"
	"repro/internal/stats"
)

func TestRecoveryBacklogConservation(t *testing.T) {
	rsc, _ := rs.New(10, 4)
	res, err := NewStudy(rsc).Run(testTrace(t, 24))
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(150 * stats.TB)
	bl, err := RecoveryBacklog(res, budget)
	if err != nil {
		t.Fatal(err)
	}
	// Conservation: arrivals = processed + final backlog.
	var arrived, processed int64
	for _, d := range bl.Days {
		arrived += d.ArrivedBytes
		processed += d.ProcessedBytes
		if d.ProcessedBytes > budget {
			t.Fatalf("day %d processed %d over budget %d", d.Day, d.ProcessedBytes, budget)
		}
		if d.BacklogBytes < 0 {
			t.Fatal("negative backlog")
		}
		if d.Utilization < 0 || d.Utilization > 1 {
			t.Fatalf("utilization %v out of range", d.Utilization)
		}
	}
	final := bl.Days[len(bl.Days)-1].BacklogBytes
	if arrived != processed+final {
		t.Fatalf("conservation violated: %d != %d + %d", arrived, processed, final)
	}
	if arrived != res.TotalCrossRackBytes {
		t.Fatal("arrivals do not match study traffic")
	}
}

func TestBacklogSaturationAccounting(t *testing.T) {
	res := &Result{Days: []DayStats{
		{Day: 0, CrossRackBytes: 100},
		{Day: 1, CrossRackBytes: 0},
		{Day: 2, CrossRackBytes: 30},
	}}
	bl, err := RecoveryBacklog(res, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Day 0: queue 100, process 60, backlog 40, saturated.
	// Day 1: queue 40, process 40, backlog 0.
	// Day 2: queue 30, process 30, backlog 0.
	if bl.Days[0].BacklogBytes != 40 || bl.Days[1].BacklogBytes != 0 {
		t.Fatalf("backlog series wrong: %+v", bl.Days)
	}
	if bl.SaturatedDays != 1 {
		t.Fatalf("saturated days %d, want 1", bl.SaturatedDays)
	}
	if bl.DrainDays != 1 {
		t.Fatalf("drain days %d, want 1", bl.DrainDays)
	}
	if bl.PeakBacklogBytes != 40 {
		t.Fatalf("peak %d, want 40", bl.PeakBacklogBytes)
	}
	if bl.Days[2].BacklogBytes != 0 {
		t.Fatal("final backlog wrong")
	}
}

func TestPiggybackReducesBacklogAtSameThrottle(t *testing.T) {
	// The second-order §3.2 benefit: at a throttle between the two
	// codes' daily medians, RS queues recovery work while the
	// piggybacked code drains — fewer saturated days, lower peaks.
	rsc, _ := rs.New(10, 4)
	pb, _ := core.New(10, 4)
	tr := testTrace(t, 48)
	cmp, err := Compare(rsc, pb, tr)
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(170 * stats.TB)
	rsBL, err := RecoveryBacklog(cmp.Baseline, budget)
	if err != nil {
		t.Fatal(err)
	}
	pbBL, err := RecoveryBacklog(cmp.Candidate, budget)
	if err != nil {
		t.Fatal(err)
	}
	if pbBL.SaturatedDays >= rsBL.SaturatedDays {
		t.Fatalf("piggyback saturated %d days, RS %d — expected fewer", pbBL.SaturatedDays, rsBL.SaturatedDays)
	}
	if pbBL.PeakBacklogBytes >= rsBL.PeakBacklogBytes {
		t.Fatalf("piggyback peak backlog %d, RS %d — expected lower", pbBL.PeakBacklogBytes, rsBL.PeakBacklogBytes)
	}
	if pbBL.MeanUtilization >= rsBL.MeanUtilization {
		t.Fatalf("piggyback utilization %v, RS %v — expected lower", pbBL.MeanUtilization, rsBL.MeanUtilization)
	}
}

func TestRecoveryBacklogValidation(t *testing.T) {
	if _, err := RecoveryBacklog(nil, 10); err == nil {
		t.Fatal("nil result accepted")
	}
	if _, err := RecoveryBacklog(&Result{}, 10); err == nil {
		t.Fatal("empty result accepted")
	}
	if _, err := RecoveryBacklog(&Result{Days: make([]DayStats, 1)}, 0); err == nil {
		t.Fatal("zero budget accepted")
	}
}
