package repro

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/engine"
	"repro/internal/hdfs"
	"repro/internal/lrc"
	"repro/internal/reliability"
	"repro/internal/rs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestQuickstartFlow(t *testing.T) {
	// The README quickstart, as a test: split, encode, lose shards,
	// reconstruct, join.
	code, err := core.New(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 100_000)
	rand.New(rand.NewSource(1)).Read(data)

	shards, err := ec.SplitShards(data, code.DataShards(), code.ParityShards(), code.MinShardSize())
	if err != nil {
		t.Fatal(err)
	}
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	shards[0], shards[5], shards[11], shards[13] = nil, nil, nil, nil
	if err := code.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	got, err := ec.JoinShards(shards, code.DataShards(), len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("quickstart roundtrip corrupted data")
	}
}

func TestSplitShardsValidation(t *testing.T) {
	if _, err := ec.SplitShards(nil, 4, 2, 2); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := ec.SplitShards([]byte{1}, 0, 2, 2); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := ec.SplitShards([]byte{1}, 4, -1, 2); err == nil {
		t.Fatal("negative r accepted")
	}
	if _, err := ec.SplitShards([]byte{1}, 4, 2, 0); err == nil {
		t.Fatal("zero alignment accepted")
	}
}

func TestSplitShardsAlignment(t *testing.T) {
	shards, err := ec.SplitShards(make([]byte, 101), 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 6 {
		t.Fatalf("got %d shards, want 6", len(shards))
	}
	for i := 0; i < 4; i++ {
		if len(shards[i])%2 != 0 {
			t.Fatalf("shard %d not aligned: %d bytes", i, len(shards[i]))
		}
	}
	for i := 4; i < 6; i++ {
		if shards[i] != nil {
			t.Fatal("parity slots must be nil before Encode")
		}
	}
}

func TestJoinShardsErrors(t *testing.T) {
	shards, _ := ec.SplitShards(make([]byte, 100), 4, 2, 2)
	if _, err := ec.JoinShards(shards, 9, 100); err == nil {
		t.Fatal("k beyond shard count accepted")
	}
	shards[1] = nil
	if _, err := ec.JoinShards(shards, 4, 100); err == nil {
		t.Fatal("missing data shard accepted")
	}
	shards, _ = ec.SplitShards(make([]byte, 100), 4, 2, 2)
	if _, err := ec.JoinShards(shards, 4, 1000); err == nil {
		t.Fatal("length beyond capacity accepted")
	}
}

func TestAllCodecsSatisfyInterface(t *testing.T) {
	rsc, err := rs.New(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := core.New(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := lrc.New(10, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []ec.Code{rsc, pb, lc} {
		if c.DataShards() != 10 {
			t.Fatalf("%s: wrong k", c.Name())
		}
		per, avg, err := ec.RepairFraction(c, 4096)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(per) != c.TotalShards() || avg <= 0 || avg > 1 {
			t.Fatalf("%s: bad repair fractions", c.Name())
		}
	}
}

func TestNewPiggybackedRSWithGroups(t *testing.T) {
	pb, err := core.New(10, 4, core.WithGroups([][]int{{0, 1}, {2, 3}, {4, 5}}))
	if err != nil {
		t.Fatal(err)
	}
	// Covered shards repair at (10+2)/20 = 0.6; uncovered at 1.0.
	if f := pb.TheoreticalRepairFraction(0); f != 0.6 {
		t.Fatalf("fraction %v, want 0.6", f)
	}
	if f := pb.TheoreticalRepairFraction(9); f != 1.0 {
		t.Fatalf("uncovered fraction %v, want 1.0", f)
	}
	if _, err := core.New(10, 4, core.WithGroups([][]int{{0, 0}})); err == nil {
		t.Fatal("bad groups accepted")
	}
}

func TestStudyPipelineThroughPublicAPI(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Days = 8
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rsc, _ := rs.New(10, 4)
	pb, _ := core.New(10, 4)
	cmp, err := sim.Compare(rsc, pb, tr)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.SavingsFraction() <= 0.15 {
		t.Fatalf("savings fraction %v, want > 0.15", cmp.SavingsFraction())
	}
	res, err := sim.NewStudy(rsc).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBlocks != cmp.Baseline.TotalBlocks {
		t.Fatal("Study.Run and Compare disagree")
	}
}

func TestDistributionThroughPublicAPI(t *testing.T) {
	cfg := sim.DefaultStripeFailureConfig()
	cfg.Stripes = 20000
	cfg.Windows = 2
	dist, err := sim.MissingBlockDistribution(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Fraction(1) < 0.9 {
		t.Fatalf("single-failure share %v, want > 0.9", dist.Fraction(1))
	}
}

func TestReliabilityThroughPublicAPI(t *testing.T) {
	pb, _ := core.New(10, 4)
	rsc, _ := rs.New(10, 4)
	pbSys, err := reliability.CodeSystem(pb, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	rsSys, _ := reliability.CodeSystem(rsc, 256<<20)
	p := reliability.DefaultParams()
	pbY, err := reliability.MTTDLYears(pbSys, p)
	if err != nil {
		t.Fatal(err)
	}
	rsY, _ := reliability.MTTDLYears(rsSys, p)
	if pbY <= rsY {
		t.Fatalf("MTTDL(PB)=%v <= MTTDL(RS)=%v", pbY, rsY)
	}
}

func TestMiniHDFSThroughPublicAPI(t *testing.T) {
	pb, _ := core.New(4, 2)
	fs, err := hdfs.New(hdfs.Config{
		Topology:    cluster.Topology{Racks: 10, MachinesPerRack: 2},
		Code:        pb,
		BlockSize:   512,
		Replication: 3,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2048)
	rand.New(rand.NewSource(2)).Read(data)
	if err := fs.WriteFile("warm/data", data); err != nil {
		t.Fatal(err)
	}
	if err := fs.RaidFile("warm/data"); err != nil {
		t.Fatal(err)
	}
	locs, err := fs.BlockLocations("warm/data")
	if err != nil {
		t.Fatal(err)
	}
	fs.DecommissionMachine(locs[0][0])
	report, err := fs.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if report.RepairedStriped != 1 {
		t.Fatalf("fix report %+v", report)
	}
	got, err := fs.ReadFile("warm/data")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("public API HDFS flow corrupted data")
	}
}

// TestPartialSumThroughPublicAPI drives the partial-sum surface end to
// end through exported package APIs alone: linear plans, the
// aggregation tree, a live serving cluster with a partial-sum client,
// and the partial-sum block fixer.
func TestPartialSumThroughPublicAPI(t *testing.T) {
	code, err := rs.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Linear plan + reference evaluation.
	var lp ec.LinearRepairPlanner = code
	plan, err := lp.PlanLinearRepair(0, 8, ec.AllAliveExcept(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Terms) == 0 {
		t.Fatal("empty linear plan")
	}

	// Aggregation tree over a toy placement: shard i on machine i,
	// machine i on rack i/2.
	tree, err := engine.PlanRepairTree(plan,
		func(shard int) (int, bool, error) { return shard, true, nil },
		func(m int) int { return m / 2 },
	)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root == nil || tree.TargetSize != 8 {
		t.Fatalf("bad tree: %+v", tree)
	}

	// Live cluster: partial-sum client and fixer.
	sys, err := serve.Start(hdfs.Config{
		Topology:         cluster.Topology{Racks: 8, MachinesPerRack: 2},
		Code:             code,
		BlockSize:        2048,
		Replication:      3,
		Seed:             5,
		PartialSumRepair: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cl, err := serve.Dial(sys.NameAddr(), code, serve.WithPartialSumRepair())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	data := bytes.Repeat([]byte("partial"), 1200)
	if err := cl.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := cl.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	_, blocks, err := sys.Cluster().FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.KillDataNode(blocks[0].Locations[0]); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("partial-sum degraded read not byte-identical")
	}
	if c := cl.Counters(); c.PartialSumBlocks == 0 {
		t.Fatalf("no partial-sum blocks served: %+v", c)
	}
	rep, err := cl.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairedStriped == 0 {
		t.Fatalf("fixer repaired nothing: %+v", rep)
	}
}
