package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	c.Add(3)
	c.Inc()
	c.Add(-5) // counters never go down
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if again := r.Counter("ops_total"); again != c {
		t.Fatal("same name must return the same counter instance")
	}
	depth := 2.5
	r.RegisterGauge("depth", func() float64 { return depth })
	depth -= 0.5 // evaluated at snapshot time, not at registration
	r.RegisterGauge("derived", func() float64 { return 7 })
	snap := r.Snapshot()
	if snap.Counters["ops_total"] != 4 || snap.Gauges["depth"] != 2.0 || snap.Gauges["derived"] != 7 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	h := r.Histogram("z", LatencyBuckets)
	h.Observe(1)
	r.RegisterGauge("f", func() float64 { return 1 })
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot must be empty: %+v", snap)
	}
	var s *SpanStore
	s.Add(Span{})
	if s.Spans() != nil || s.Dropped() != 0 {
		t.Fatal("nil span store must be empty")
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["lat_seconds"]
	wantCounts := []int64{1, 2, 1, 1}
	if len(snap.Counts) != len(wantCounts) {
		t.Fatalf("bucket count = %d, want %d", len(snap.Counts), len(wantCounts))
	}
	for i, w := range wantCounts {
		if snap.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, snap.Counts[i], w, snap)
		}
	}
	if snap.Count != 5 {
		t.Fatalf("count = %d, want 5", snap.Count)
	}
	if snap.Sum < 5.6 || snap.Sum > 5.61 {
		t.Fatalf("sum = %v, want ~5.605", snap.Sum)
	}
}

func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter(`rpc_requests_total{role="namenode",method="info"}`).Add(7)
	r.RegisterGauge("queue_depth", func() float64 { return 3 })
	r.Histogram(`rpc_request_seconds{method="info"}`, []float64{0.1, 1}).Observe(0.05)
	text := string(r.Snapshot().PrometheusText())

	for _, want := range []string{
		"# TYPE rpc_requests_total counter",
		`rpc_requests_total{role="namenode",method="info"} 7`,
		"# TYPE queue_depth gauge",
		"queue_depth 3",
		"# TYPE rpc_request_seconds histogram",
		`rpc_request_seconds_bucket{method="info",le="0.1"} 1`,
		`rpc_request_seconds_bucket{method="info",le="+Inf"} 1`,
		`rpc_request_seconds_sum{method="info"} 0.05`,
		`rpc_request_seconds_count{method="info"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)
	r.Histogram("h", []float64{1}).Observe(2)
	blob, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["c"] != 1 || back.Histograms["h"].Count != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

// Concurrent increments through the registry must be race-free and
// lose nothing (run under -race in CI).
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("c").Inc()
				r.Histogram("h", LatencyBuckets).Observe(0.01)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counters["c"] != workers*perWorker {
		t.Fatalf("counter = %d, want %d", snap.Counters["c"], workers*perWorker)
	}
	if snap.Histograms["h"].Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", snap.Histograms["h"].Count, workers*perWorker)
	}
}
