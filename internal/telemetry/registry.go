// Package telemetry is the zero-dependency observability substrate of
// the repro system: a metrics registry of atomic counters, function
// gauges, and fixed-bucket histograms. Every tier — the serving
// daemons, the repair control plane, the metadata plane, the stripe
// engine — registers its instruments here, and a Snapshot of the
// registry is the one way to read them: the benchmark's per-layer rows
// and the live-system tests both read it.
//
// # Instrument naming
//
// Labels are embedded directly in the instrument name in Prometheus
// sample syntax — `rpc_requests_total{role="datanode",method="dn.read"}`
// — so the registry stays a flat name→instrument map, and a reader
// selects a label set by matching on the name.
//
// # Nil safety
//
// Every instrument method and every Registry method is safe on a nil
// receiver and does nothing: call sites thread a possibly-nil *Registry
// unconditionally and pay one nil check, not a conditional at every
// increment. A disabled system runs the identical code path.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter (no-op on a nil receiver or negative n —
// counters never go down).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// LatencyBuckets are the default histogram bounds for RPC latencies in
// seconds: half a millisecond through 2.5 s, roughly geometric.
var LatencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// Histogram is a fixed-bucket distribution: counts per upper bound plus
// an implicit +Inf bucket, with a running sum and total count.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample (no-op on a nil receiver).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = math.Float64frombits(h.sum.Load())
	s.Count = h.count.Load()
	return s
}

// Registry is a concurrent-safe name→instrument map. Instruments are
// created on first use and shared thereafter: two callers asking for
// the same counter name increment the same atomic.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gaugeFuncs map[string]func() float64
	hists      map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gaugeFuncs: make(map[string]func() float64),
		hists:      make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use (nil on
// a nil registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// RegisterGauge binds a name to a function evaluated at snapshot time —
// the hook for folding existing atomics (lock-wait counters, queue
// depths) into the registry without double bookkeeping. Re-registering
// a name replaces the function. No-op on a nil registry.
func (r *Registry) RegisterGauge(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later bounds are ignored — the first
// registration wins). Nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram's captured state. Counts has one
// entry per bound plus a final +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Snapshot is a point-in-time capture of a registry: the unit the
// benchmark's per-layer rows difference and the serve tests assert on.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot captures every instrument, evaluating registered gauge
// functions. A nil registry snapshots empty.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	funcs := make(map[string]func() float64, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		funcs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	// Instruments are read outside the map lock: gauge functions may
	// themselves take locks (queue depths), and holding the registry
	// mutex across them invites ordering trouble.
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, fn := range funcs {
		s.Gauges[k] = fn()
	}
	for k, h := range hists {
		s.Histograms[k] = h.snapshot()
	}
	return s
}
