package serve

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ec"
	"repro/internal/repairmgr"
	"repro/internal/telemetry"
)

// startTelemetrySystem is startTestSystem with the observability plane
// on. The leakcheck sentinel is registered first, so the debug HTTP
// listeners (when cfg.HTTP) must come down with the system — a leaked
// handler goroutine fails the test here.
func startTelemetrySystem(t *testing.T, code ec.Code, cfg TelemetryConfig) *System {
	t.Helper()
	return startTestSystem(t, code, WithTelemetry(cfg))
}

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

// TestDegradedReadSpanTreeAfterKill pins trace propagation end to end:
// a killed datanode forces the degraded path, the sampled read's trace
// context rides every RPC, and the spans collected from the client,
// the namenode, and the surviving datanodes assemble into a rooted,
// acyclic tree with no orphans (BuildTree validates exactly that).
// The system runs with the debug HTTP listeners ON so the leakcheck
// sentinel also covers their shutdown.
func TestDegradedReadSpanTreeAfterKill(t *testing.T) {
	for _, code := range testCodecs(t) {
		t.Run(code.Name(), func(t *testing.T) {
			sys := startTelemetrySystem(t, code, TelemetryConfig{HTTP: true})
			if sys.MetricsAddr() == "" {
				t.Fatal("debug HTTP listener missing")
			}
			cl, err := Dial(sys.NameAddr(), code, WithTraceSampling(1))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			rng := rand.New(rand.NewSource(3))
			data := make([]byte, 4*4096) // one full stripe for k=4
			rng.Read(data)
			if err := cl.WriteFile("f", data); err != nil {
				t.Fatal(err)
			}
			if err := cl.RaidFile("f"); err != nil {
				t.Fatal(err)
			}
			killFirstBlockHolder(t, sys, "f")

			got, err := cl.ReadFile("f")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("degraded read broken: %v", err)
			}
			if cl.Counters().DegradedBlocks == 0 {
				t.Fatal("kill produced no degraded block reads")
			}

			traceID := cl.LastTraceID()
			if traceID == 0 {
				t.Fatal("sampling every degraded read minted no trace")
			}
			spans, err := cl.CollectTrace(traceID)
			if err != nil {
				t.Fatal(err)
			}
			root, err := telemetry.BuildTree(spans)
			if err != nil {
				t.Fatalf("span tree invalid: %v", err)
			}
			if root.Name != "degraded_read" || root.Process != "client" {
				t.Fatalf("root span is %s@%s, want degraded_read@client", root.Name, root.Process)
			}
			if len(root.Children) == 0 {
				t.Fatal("root span has no children: no RPC hop recorded its span")
			}
			datanodes := 0
			root.Walk(func(n *telemetry.SpanNode) {
				if n.TraceID != traceID {
					t.Errorf("span %s carries trace %d, want %d", n.Name, n.TraceID, traceID)
				}
				if strings.HasPrefix(n.Process, "datanode-") {
					datanodes++
				}
			})
			if datanodes == 0 {
				t.Fatal("no datanode span in the tree: helper fetches did not propagate the trace")
			}
		})
	}
}

// TestPartialSumTraceByteAccounting is the acceptance criterion for
// the trace plane: a sampled degraded read served by the partial-sum
// pipeline must produce a span tree whose byte counts restate the
// partial-sum claim — the reconstructing client received exactly
// ONE block (the folded buffer), and every dn.partial hop moved one
// block-sized payload, not ~k helper ranges.
func TestPartialSumTraceByteAccounting(t *testing.T) {
	const blockSize = 4096
	code := testCodecs(t)[0] // rs: has the linear repair plan
	sys := startTelemetrySystem(t, code, TelemetryConfig{})
	cl, err := Dial(sys.NameAddr(), code, WithPartialSumRepair(), WithTraceSampling(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 4*blockSize) // one full stripe for k=4
	rng.Read(data)
	if err := cl.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := cl.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	killFirstBlockHolder(t, sys, "f")

	got, err := cl.ReadFile("f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("partial-sum degraded read broken: %v", err)
	}
	c := cl.Counters()
	if c.DegradedBlocks == 0 {
		t.Fatal("kill produced no degraded block reads")
	}
	if c.PartialSumBlocks != c.DegradedBlocks {
		t.Fatalf("%d of %d degraded reads fell back from the partial-sum pipeline",
			c.DegradedBlocks-c.PartialSumBlocks, c.DegradedBlocks)
	}
	// Exactly one block per degraded read crossed the client's NIC.
	if want := c.DegradedBlocks * blockSize; c.DegradedBytesFetched != want {
		t.Fatalf("client fetched %d degraded bytes for %d blocks, want %d (one block each)",
			c.DegradedBytesFetched, c.DegradedBlocks, want)
	}

	spans, err := cl.CollectTrace(cl.LastTraceID())
	if err != nil {
		t.Fatal(err)
	}
	root, err := telemetry.BuildTree(spans)
	if err != nil {
		t.Fatalf("span tree invalid: %v", err)
	}
	if root.Bytes != blockSize {
		t.Fatalf("root span moved %d bytes, want exactly one %d-byte block", root.Bytes, blockSize)
	}
	folds := 0
	root.Walk(func(n *telemetry.SpanNode) {
		if n.Name != methodDNPartial {
			return
		}
		folds++
		if n.Bytes != blockSize {
			t.Errorf("dn.partial hop at %s moved %d bytes, want %d", n.Process, n.Bytes, blockSize)
		}
	})
	if folds == 0 {
		t.Fatal("no dn.partial span in the tree")
	}
}

// requiredInstruments are the name prefixes one namenode /metrics
// scrape of the exercised system must contain — one per instrumented
// tier (RPC plane, serve layer, repair control plane, metadata
// substrate, repair engine).
var requiredInstruments = []string{
	"rpc_requests_total",
	"rpc_request_seconds_bucket",
	"rpc_response_bytes_total",
	"serve_degraded_plans_total",
	"repair_polls_total",
	"repair_repairs_done_total",
	"repair_queue_depth",
	"hdfs_lock_wait_seconds",
	"hdfs_meta_ops",
	"engine_workers",
}

// scrapeMetrics fetches and parses one Prometheus text exposition into
// a name → value map (full name including labels; # lines skipped).
func scrapeMetrics(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:sp]] = v
	}
	return out, nil
}

// sumPrefix sums every metric whose name starts with prefix and
// reports whether any did.
func sumPrefix(m map[string]float64, prefix string) (total float64, found bool) {
	for name, v := range m {
		if strings.HasPrefix(name, prefix) {
			total += v
			found = true
		}
	}
	return total, found
}

// TestMetricsScrapeCycle scrapes /metrics the way an operator's
// Prometheus would — twice — around a write → raid → kill →
// degraded-read → autonomous-repair cycle on an instrumented system
// with the debug HTTP listeners on. It pins the contract the
// observability layer advertises: every required instrument is
// exposed, the cycle's instruments moved, a datanode's own listener
// serves the shared registry, and no counter goes backwards between
// scrapes.
func TestMetricsScrapeCycle(t *testing.T) {
	code := testCodecs(t)[0]
	sys := startTestSystem(t, code, WithTelemetry(TelemetryConfig{HTTP: true}), WithRepairManager(repairmgr.Config{
		SuspectAfter: 150 * time.Millisecond,
		GraceWindow:  0, // repair at the suspect deadline: the cycle wants traffic, not savings
		PollInterval: 20 * time.Millisecond,
	}))
	if sys.MetricsAddr() == "" {
		t.Fatal("namenode debug HTTP listener missing")
	}
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

	first, err := scrapeMetrics(sys.MetricsAddr())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range requiredInstruments {
		if _, ok := sumPrefix(first, want); !ok {
			t.Errorf("/metrics scrape missing instrument %s", want)
		}
	}
	for _, name := range []string{"serve_degraded_plans_total", "repair_polls_total", "repair_repairs_done_total"} {
		if first[name] < 1 {
			t.Errorf("%s = %v after the cycle, want >= 1", name, first[name])
		}
	}
	if n, _ := sumPrefix(first, `rpc_requests_total{role="datanode"`); n == 0 {
		t.Error("no datanode RPCs recorded on the shared registry")
	}

	// A surviving datanode's own listener serves the same registry.
	dnAddr := ""
	for m := 0; dnAddr == "" && m < sys.Cluster().Machines(); m++ {
		dnAddr = sys.DataNodeMetricsAddr(m)
	}
	if dnAddr == "" {
		t.Fatal("no datanode debug listener found")
	}
	if _, err := scrapeMetrics(dnAddr); err != nil {
		t.Fatalf("datanode scrape: %v", err)
	}

	// More traffic, then monotonicity: between two scrapes no counter
	// (the _total names) may move backwards; gauges may.
	readAll()
	second, err := scrapeMetrics(sys.MetricsAddr())
	if err != nil {
		t.Fatal(err)
	}
	for name, v1 := range first {
		if !strings.Contains(name, "_total") {
			continue
		}
		if v2, ok := second[name]; !ok || v2 < v1 {
			t.Errorf("counter %s went backwards: %v -> %v", name, v1, second[name])
		}
	}
}
