package serve

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/repairmgr"
)

// killFirstBlockHolder kills the datanode holding the file's first
// block and returns the victim machine.
func killFirstBlockHolder(t *testing.T, sys *System, name string) int {
	t.Helper()
	locs, err := sys.Cluster().BlockLocations(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) == 0 || len(locs[0]) == 0 {
		t.Fatalf("file %s has no located blocks", name)
	}
	victim := locs[0][0]
	if err := sys.KillDataNode(victim); err != nil {
		t.Fatal(err)
	}
	return victim
}

// TestCountersRaceFreeUnderLoad is the regression for the old torn
// counter reads: Counters() is hammered while reads and writes are in
// flight. Every field is an atomic registry read, so under -race this
// must be silent.
func TestCountersRaceFreeUnderLoad(t *testing.T) {
	code := testCodecs(t)[0]
	sys := startTestSystem(t, code)
	cl, err := Dial(sys.NameAddr(), code)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 4*4096)
	rng.Read(data)
	if err := cl.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}

	const readers, snapshots, iters = 4, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := cl.ReadFile("f"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for w := 0; w < snapshots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readers*iters; i++ {
				c := cl.Counters()
				if c.BlocksRead < c.DegradedBlocks {
					t.Errorf("counters inverted: %+v", c)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c := cl.Counters(); c.Reads != readers*iters || c.BlocksRead != readers*iters*4 {
		t.Fatalf("final counters %+v, want %d reads / %d blocks", c, readers*iters, readers*iters*4)
	}
}

// requiredInstruments are the name prefixes one Snapshot of the
// exercised system must contain, by instrument kind — one per
// instrumented tier (RPC plane, serve layer, repair control plane,
// metadata substrate, repair engine).
var requiredInstruments = struct{ counters, gauges, histograms []string }{
	counters: []string{
		"rpc_requests_total",
		"rpc_response_bytes_total",
		"serve_degraded_plans_total",
		"serve_replica_reports_total",
		"repair_polls_total",
		"repair_repairs_done_total",
	},
	gauges: []string{
		"repair_queue_depth",
		"hdfs_lock_wait_seconds",
		"hdfs_meta_ops",
		"engine_workers",
	},
	histograms: []string{"rpc_request_seconds"},
}

// hasPrefix reports whether any instrument name starts with prefix.
func hasPrefix[V any](m map[string]V, prefix string) bool {
	for name := range m {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// sumPrefix sums every counter whose name starts with prefix.
func sumPrefix(m map[string]int64, prefix string) (total int64) {
	for name, v := range m {
		if strings.HasPrefix(name, prefix) {
			total += v
		}
	}
	return total
}

// TestMetricsScrapeCycle reads the system's registry twice around a
// write → raid → kill → degraded-read → autonomous-repair cycle on an
// instrumented system. It pins the contract the observability layer
// advertises: every required instrument is registered, the cycle's
// instruments moved, datanode RPCs land on the shared registry, and no
// counter goes backwards between snapshots.
func TestMetricsScrapeCycle(t *testing.T) {
	code := testCodecs(t)[0]
	sys := startTestSystem(t, code, WithTelemetry(TelemetryConfig{}), withRepairConfig(repairmgr.Config{
		SuspectAfter: 150 * time.Millisecond,
		GraceWindow:  0, // repair at the suspect deadline: the cycle wants traffic, not savings
		PollInterval: 20 * time.Millisecond,
	}))
	files := preloadRaided(t, sys, 2)
	cl, err := Dial(sys.NameAddr(), code)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	readAll := func() {
		t.Helper()
		for name, want := range files {
			got, err := cl.ReadFile(name)
			if err != nil {
				t.Fatalf("read %s through the failure: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: content differs", name)
			}
		}
	}

	// Kill a working-set holder, then read through the loss: reads take
	// the degraded path until the control plane repairs the stripes.
	killFirstBlockHolder(t, sys, "f-0")
	waitFor(t, 30*time.Second, "an autonomous repair to complete", func() bool {
		readAll()
		st, err := cl.RepairStatus()
		if err != nil {
			t.Fatal(err)
		}
		return st.RepairsDone >= 1
	})
	if cl.Counters().DegradedBlocks == 0 {
		t.Fatal("the cycle produced no degraded reads")
	}

	first := sys.Telemetry().Snapshot()
	for _, want := range requiredInstruments.counters {
		if !hasPrefix(first.Counters, want) {
			t.Errorf("snapshot missing counter %s", want)
		}
	}
	for _, want := range requiredInstruments.gauges {
		if !hasPrefix(first.Gauges, want) {
			t.Errorf("snapshot missing gauge %s", want)
		}
	}
	for _, want := range requiredInstruments.histograms {
		if !hasPrefix(first.Histograms, want) {
			t.Errorf("snapshot missing histogram %s", want)
		}
	}
	for _, name := range []string{"serve_degraded_plans_total", "repair_polls_total", "repair_repairs_done_total"} {
		if first.Counters[name] < 1 {
			t.Errorf("%s = %v after the cycle, want >= 1", name, first.Counters[name])
		}
	}
	if sumPrefix(first.Counters, `rpc_requests_total{role="datanode"`) == 0 {
		t.Error("no datanode RPCs recorded on the shared registry")
	}

	// More traffic, then monotonicity: between two snapshots no counter
	// may move backwards; gauges may.
	readAll()
	second := sys.Telemetry().Snapshot()
	for name, v1 := range first.Counters {
		if v2, ok := second.Counters[name]; !ok || v2 < v1 {
			t.Errorf("counter %s went backwards: %v -> %v", name, v1, second.Counters[name])
		}
	}
}
