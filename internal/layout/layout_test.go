package layout

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/rs"
)

func TestKindString(t *testing.T) {
	if Coupled.String() != "coupled" || Interleaved.String() != "interleaved" {
		t.Fatal("names wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}

func TestDiskReadsCoupled(t *testing.T) {
	rs, err := DiskReads(Coupled, 1000, 500, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0] != (Range{Off: 500, Len: 500}) {
		t.Fatalf("coupled half-read = %+v, want one exact range", rs)
	}
}

func TestDiskReadsInterleavedHalf(t *testing.T) {
	// A b-half read of an interleaved block covers (almost) the whole
	// block: the disk savings vanish.
	rs, err := DiskReads(Interleaved, 1000, 500, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("got %d ranges", len(rs))
	}
	if rs[0].Len < 999 {
		t.Fatalf("interleaved half-read fetched %d bytes, want ~1000 (2x amplification)", rs[0].Len)
	}
	// Same for an a-half read.
	rs, _ = DiskReads(Interleaved, 1000, 0, 500)
	if rs[0].Off != 0 || rs[0].Len < 999 {
		t.Fatalf("interleaved a-half read = %+v", rs)
	}
}

func TestDiskReadsFullBlock(t *testing.T) {
	// Full-block reads are layout-independent.
	for _, k := range []Kind{Coupled, Interleaved} {
		rs, err := DiskReads(k, 1000, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, r := range rs {
			total += r.Len
		}
		if total != 1000 {
			t.Fatalf("%v: full read fetches %d bytes", k, total)
		}
	}
}

func TestDiskReadsValidation(t *testing.T) {
	if _, err := DiskReads(Coupled, 100, 90, 20); err == nil {
		t.Fatal("overflow accepted")
	}
	if _, err := DiskReads(Coupled, 100, -1, 5); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := DiskReads(Kind(9), 100, 0, 10); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if rs, err := DiskReads(Coupled, 100, 10, 0); err != nil || rs != nil {
		t.Fatal("empty read must be free")
	}
}

func TestPlanGeometryReproducesHitchhikerMotivation(t *testing.T) {
	// The (10,4) piggybacked repair of a data shard:
	//  - network bytes: 0.70 of the RS baseline under either layout;
	//  - disk bytes: 0.70 of baseline under Coupled, but ~1.3x the RS
	//    baseline under Interleaved (13 half-reads, each amplified to a
	//    whole block). Hop-and-couple exists precisely to avoid this.
	pb, err := core.New(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	rsc, err := rs.New(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	const block = int64(1 << 20)
	pbPlan, err := pb.PlanRepair(0, block, ec.AllAliveExcept(0))
	if err != nil {
		t.Fatal(err)
	}
	rsPlan, err := rsc.PlanRepair(0, block, ec.AllAliveExcept(0))
	if err != nil {
		t.Fatal(err)
	}

	_, coupledDisk, err := PlanGeometry(Coupled, pbPlan)
	if err != nil {
		t.Fatal(err)
	}
	_, interDisk, err := PlanGeometry(Interleaved, pbPlan)
	if err != nil {
		t.Fatal(err)
	}
	_, rsDisk, err := PlanGeometry(Coupled, rsPlan)
	if err != nil {
		t.Fatal(err)
	}

	if coupledDisk != pbPlan.TotalBytes() {
		t.Fatalf("coupled disk bytes %d != network bytes %d", coupledDisk, pbPlan.TotalBytes())
	}
	if rsDisk != 10*block {
		t.Fatalf("RS disk bytes %d, want %d", rsDisk, 10*block)
	}
	if coupledDisk >= rsDisk {
		t.Fatalf("coupled piggyback disk %d not below RS %d", coupledDisk, rsDisk)
	}
	if interDisk <= rsDisk {
		t.Fatalf("interleaved piggyback disk %d should EXCEED RS %d (the Hitchhiker motivation)", interDisk, rsDisk)
	}
}
