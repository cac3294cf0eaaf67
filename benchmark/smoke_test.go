package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/ec"
	"repro/internal/serve"
	"repro/internal/testutil/leakcheck"
)

// smokeOps is the fixed op count per client at -quick scale: enough to
// touch every code path, small enough for the whole file to run in a
// few seconds under tier-1 `go test ./...`.
const smokeOps = 12

// TestEveryMetricEveryWorkload runs both passes of all six workloads
// at quick scale and checks the contract's shape: every named metric
// present with its unit and finite, nothing failed, temp data gone,
// no goroutine left behind.
func TestEveryMetricEveryWorkload(t *testing.T) {
	defer leakcheck.Check(t)()
	tmp := t.TempDir()
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			c, err := newRunConfig(sp.Name, 7, limit{ops: smokeOps}, trace, true, tmp)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.run()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					sp.Name, trace, res.Correct, res.Attempted, res.Failed, res.failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", sp.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", sp.Name, trace, d.Name)
				case m.Unit != d.Unit || m.Unit == "":
					t.Errorf("%s: metric %s has unit %q, want %q", sp.Name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is %v", sp.Name, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", sp.Name, d.Name, m.Value)
				}
			}
		}
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		if f.IsDir() || !strings.HasPrefix(f.Name(), "spans-") {
			t.Errorf("left behind in the temp dir: %s", f.Name())
		}
	}
}

// TestDecoratorsKeepTheSeams checks the two things a timing decorator
// can silently break: the codec wrapper must still offer
// ec.LinearRepairPlanner (partial-sum repair type-asserts for it), and
// the store wrapper must come back after a crash and restart, since
// RecoverMachine reopens stores through the same factory.
func TestDecoratorsKeepTheSeams(t *testing.T) {
	defer leakcheck.Check(t)()
	sp, err := findSpec("degraded_read", true)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	e, err := setUp(sp, makeInputs(sp, 3), t.TempDir(), 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if _, ok := e.code.(ec.LinearRepairPlanner); !ok {
		t.Fatal("traced codec lost ec.LinearRepairPlanner")
	}
	tr.setOn(true)

	cl, err := serve.Dial(e.sys.NameAddr(), e.code, serve.WithPartialSumRepair())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := e.readCheck(cl, e.targets[0]); err != nil {
		t.Fatal(err)
	}
	if got := cl.Counters().PartialSumBlocks; got == 0 {
		t.Error("degraded read through the traced codec did not take the partial-sum pipeline")
	}

	if err := e.sys.RestartDataNode(e.victim); err != nil {
		t.Fatal(err)
	}
	// A client dialled before the restart keeps the old address table
	// and would go on reconstructing; a fresh one sees the machine back.
	fresh, err := serve.Dial(e.sys.NameAddr(), e.code)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	before := len(tr.spans)
	for _, name := range e.in.names {
		if err := e.readCheck(fresh, name); err != nil {
			t.Fatalf("after restart: %v", err)
		}
	}
	if n := fresh.Counters().DegradedBlocks; n != 0 {
		t.Errorf("%d reads after the restart still reconstruct", n)
	}
	gets := 0
	for _, s := range tr.spans[before:] {
		if s.Layer == layerExtent && s.Name == "Get" {
			gets++
		}
	}
	if want := len(e.in.names) * sp.BlocksPerFile; gets != want {
		t.Errorf("%d store spans after the restart, want one per block read (%d): the reopened store lost its decorator", gets, want)
	}
	names := map[string]bool{}
	for _, s := range tr.spans {
		names[s.Name] = true
	}
	if !names["PlanLinearRepair"] {
		t.Error("no PlanLinearRepair span: the partial-sum plan bypassed the decorator")
	}
}

// TestSelfCheckRepeats is the determinism gate at quick scale.
func TestSelfCheckRepeats(t *testing.T) {
	if err := selfCheck("node_repair", 5, true, t.TempDir()); err != nil {
		t.Error(err)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables in
// this package from drifting apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(contract.Workloads), len(specs))
	}
	for i, w := range contract.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, spec has %q / %q", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(contract.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the table", len(contract.EndToEnd), len(endToEnd))
	}
	for i, m := range contract.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, table has %+v", i, m, d)
		}
	}
	if len(contract.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the table", len(contract.PerLayer), len(perLayer))
	}
	for i, m := range contract.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, table has %+v", i, m, d)
		}
	}
}
