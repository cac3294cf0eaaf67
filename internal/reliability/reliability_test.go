package reliability

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lrc"
	"repro/internal/rs"
)

const blockBytes = 256 << 20

func TestReplicationSystemValidation(t *testing.T) {
	if _, err := ReplicationSystem(1, blockBytes); err == nil {
		t.Fatal("1 replica accepted")
	}
	if _, err := ReplicationSystem(3, 0); err == nil {
		t.Fatal("zero block size accepted")
	}
	sys, err := ReplicationSystem(3, blockBytes)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Nodes != 3 || sys.Tolerance != 2 || sys.StorageOverhead != 3 {
		t.Fatalf("replication system wrong: %+v", sys)
	}
	if sys.RepairBytes != blockBytes {
		t.Fatal("replica repair must copy exactly one block")
	}
}

func TestCodeSystems(t *testing.T) {
	rsc, _ := rs.New(10, 4)
	sys, err := CodeSystem(rsc, blockBytes)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Nodes != 14 || sys.Tolerance != 4 {
		t.Fatalf("RS system wrong: %+v", sys)
	}
	if math.Abs(sys.RepairBytes-10*blockBytes) > 1 {
		t.Fatalf("RS repair bytes %v, want %v", sys.RepairBytes, 10*blockBytes)
	}

	pb, _ := core.New(10, 4)
	pbSys, err := CodeSystem(pb, blockBytes)
	if err != nil {
		t.Fatal(err)
	}
	wantPB := pb.AverageRepairFraction() * 10 * blockBytes
	if math.Abs(pbSys.RepairBytes-wantPB)/wantPB > 1e-9 {
		t.Fatalf("PB repair bytes %v, want %v", pbSys.RepairBytes, wantPB)
	}
	if pbSys.Tolerance != 4 {
		t.Fatal("piggybacking must not change fault tolerance")
	}
}

func TestMTTDLTwoWayReplicationClosedForm(t *testing.T) {
	// For 2-way replication with repair rate mu >> lambda, the textbook
	// approximation is MTTDL ≈ mu / (2 lambda^2).
	sys, _ := ReplicationSystem(2, blockBytes)
	p := Params{NodeFailuresPerHour: 1e-4, RepairBytesPerHour: 100 * blockBytes}
	mu := p.RepairBytesPerHour / sys.RepairBytes // = 100/hour
	lambda := p.NodeFailuresPerHour
	approx := mu / (2 * lambda * lambda)
	got, err := MTTDLHours(sys, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-approx)/approx > 0.05 {
		t.Fatalf("2-replication MTTDL %v, closed form %v", got, approx)
	}
}

func TestMTTDLExactTwoState(t *testing.T) {
	// Tolerance 0 (single copy): MTTDL is simply 1/(n*lambda).
	sys := System{Name: "single", Nodes: 1, Tolerance: 0, RepairBytes: 1, StorageOverhead: 1}
	p := Params{NodeFailuresPerHour: 0.5, RepairBytesPerHour: 1}
	got, err := MTTDLHours(sys, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("single-copy MTTDL %v, want 2", got)
	}
}

func TestPaperOrdering(t *testing.T) {
	// §3.2: MTTDL(Piggybacked-RS) > MTTDL(RS) because repairs move
	// fewer bytes; §1: (10,4) RS at 1.4x rivals 3-replication at 3x.
	p := DefaultParams()
	rsc, _ := rs.New(10, 4)
	pb, _ := core.New(10, 4)
	lc, _ := lrc.New(10, 4, 2)

	rsSys, _ := CodeSystem(rsc, blockBytes)
	pbSys, _ := CodeSystem(pb, blockBytes)
	lcSys, _ := CodeSystem(lc, blockBytes)
	rep3, _ := ReplicationSystem(3, blockBytes)

	rsY, err := MTTDLYears(rsSys, p)
	if err != nil {
		t.Fatal(err)
	}
	pbY, _ := MTTDLYears(pbSys, p)
	lcY, _ := MTTDLYears(lcSys, p)
	repY, _ := MTTDLYears(rep3, p)

	if pbY <= rsY {
		t.Fatalf("MTTDL ordering violated: piggybacked %v <= rs %v years", pbY, rsY)
	}
	if rsY <= repY {
		t.Fatalf("(10,4) RS MTTDL %v years not above 3-replication %v years", rsY, repY)
	}
	if lcY <= rsY {
		t.Fatalf("LRC MTTDL %v years not above RS %v years (cheaper repairs)", lcY, rsY)
	}
	// The piggybacked gain must reflect its ~24% smaller average repair.
	gain := pbY / rsY
	if gain < 1.05 || gain > 3 {
		t.Fatalf("piggybacked MTTDL gain %vx outside plausible band", gain)
	}
}

func TestMTTDLMonotoneInFailureRate(t *testing.T) {
	sys, _ := ReplicationSystem(3, blockBytes)
	base := Params{NodeFailuresPerHour: 1e-4, RepairBytesPerHour: 100 * blockBytes}
	worse := Params{NodeFailuresPerHour: 2e-4, RepairBytesPerHour: 100 * blockBytes}
	a, _ := MTTDLHours(sys, base)
	b, _ := MTTDLHours(sys, worse)
	if b >= a {
		t.Fatalf("doubling failure rate must lower MTTDL: %v -> %v", a, b)
	}
}

func TestMTTDLMonotoneInRepairBandwidth(t *testing.T) {
	sys, _ := ReplicationSystem(3, blockBytes)
	slow := Params{NodeFailuresPerHour: 1e-4, RepairBytesPerHour: 10 * blockBytes}
	fast := Params{NodeFailuresPerHour: 1e-4, RepairBytesPerHour: 100 * blockBytes}
	a, _ := MTTDLHours(sys, slow)
	b, _ := MTTDLHours(sys, fast)
	if b <= a {
		t.Fatalf("faster repair must raise MTTDL: %v -> %v", a, b)
	}
}

func TestMTTDLValidation(t *testing.T) {
	sys, _ := ReplicationSystem(3, blockBytes)
	if _, err := MTTDLHours(sys, Params{}); err == nil {
		t.Fatal("zero params accepted")
	}
	bad := sys
	bad.RepairBytes = 0
	if _, err := MTTDLHours(bad, DefaultParams()); err == nil {
		t.Fatal("zero repair bytes accepted")
	}
	bad = sys
	bad.Tolerance = 3 // >= Nodes
	if _, err := MTTDLHours(bad, DefaultParams()); err == nil {
		t.Fatal("tolerance >= nodes accepted")
	}
}
