package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ec"
	"repro/internal/hdfs"
)

// Tracing lives entirely in the benchmark: spans are recorded by
// decorators at three seams the code already offers — around each
// serve.Client call, around the ec.Code handed to serve.Start and
// serve.Dial, and around the hdfs.BlockStore each datanode opens. The
// traced pass runs ONE closed-loop client, so at any instant the
// system is working for exactly one request: a span recorded on a
// server goroutine belongs to the request the client has in flight,
// and spans nest by time.

// Layers a span can belong to.
const (
	layerClient = "client" // one serve.Client call: the root of a request
	layerCore   = "core"   // a call through the ec.Code seam
	layerFetch  = "fetch"  // time inside a repair's fetch callback
	layerExtent = "extent" // a BlockStore Get or Put
)

// span is one timed interval. Op is the request it served (shared by
// every span of that request); Parent is the span that caused it, 0
// for a root. Store spans get their parent after the run, by time
// containment, because the hop from client to datanode carries no id.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	Dur    int64  `json:"dur_ns"`
	Bytes  int64  `json:"bytes"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so call sites stay unconditional.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool  // spans are kept only inside the measured window
	curOp  atomic.Int64 // the root span of the request in flight
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setOn starts or stops recording; the measured window brackets itself
// with it.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// open is a started span.
type open struct {
	id, parent int64
	start      time.Time
}

func (t *tracer) begin(parent int64) open {
	if t == nil || !t.on.Load() {
		return open{}
	}
	return open{id: t.nextID.Add(1), parent: parent, start: time.Now()}
}

func (t *tracer) end(o open, layer, name string, bytes int64) {
	if o.id == 0 {
		return
	}
	s := span{
		ID: o.id, Parent: o.parent, Op: t.curOp.Load(), Layer: layer, Name: name,
		Start: int64(o.start.Sub(t.epoch)), Dur: int64(time.Since(o.start)), Bytes: bytes,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginOp opens the root span of one client request.
func (t *tracer) beginOp() open {
	o := t.begin(0)
	if o.id != 0 {
		t.curOp.Store(o.id)
	}
	return o
}

func (t *tracer) endOp(o open, name string, bytes int64) {
	t.end(o, layerClient, name, bytes)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedCode times every call through the ec.Code seam. The embedded
// interface forwards the accessors; the timed methods are overridden.
type tracedCode struct {
	ec.Code
	tr *tracer
}

// tracedLinearCode adds ec.LinearRepairPlanner, which partial-sum
// repair type-asserts for: a decorator that dropped it would silently
// turn that pipeline off.
type tracedLinearCode struct {
	*tracedCode
	lp ec.LinearRepairPlanner
}

func wrapCode(code ec.Code, tr *tracer) ec.Code {
	if tr == nil {
		return code
	}
	tc := &tracedCode{Code: code, tr: tr}
	if lp, ok := code.(ec.LinearRepairPlanner); ok {
		return &tracedLinearCode{tracedCode: tc, lp: lp}
	}
	return tc
}

func (c *tracedCode) parent() int64 { return c.tr.curOp.Load() }

func shardBytes(shards [][]byte) int64 {
	var n int64
	for _, s := range shards {
		n += int64(len(s))
	}
	return n
}

func (c *tracedCode) Encode(shards [][]byte) error {
	o := c.tr.begin(c.parent())
	err := c.Code.Encode(shards)
	c.tr.end(o, layerCore, "Encode", shardBytes(shards))
	return err
}

func (c *tracedCode) Verify(shards [][]byte) (bool, error) {
	o := c.tr.begin(c.parent())
	ok, err := c.Code.Verify(shards)
	c.tr.end(o, layerCore, "Verify", shardBytes(shards))
	return ok, err
}

func (c *tracedCode) Reconstruct(shards [][]byte) error {
	o := c.tr.begin(c.parent())
	err := c.Code.Reconstruct(shards)
	c.tr.end(o, layerCore, "Reconstruct", shardBytes(shards))
	return err
}

func (c *tracedCode) PlanRepair(idx int, shardSize int64, alive ec.AliveFunc) (*ec.RepairPlan, error) {
	o := c.tr.begin(c.parent())
	p, err := c.Code.PlanRepair(idx, shardSize, alive)
	c.tr.end(o, layerCore, "PlanRepair", 0)
	return p, err
}

func (c *tracedCode) PlanMultiRepair(missing []int, shardSize int64, alive ec.AliveFunc) (*ec.RepairPlan, error) {
	o := c.tr.begin(c.parent())
	p, err := c.Code.PlanMultiRepair(missing, shardSize, alive)
	c.tr.end(o, layerCore, "PlanMultiRepair", 0)
	return p, err
}

func (c *tracedLinearCode) PlanLinearRepair(idx int, shardSize int64, alive ec.AliveFunc) (*ec.LinearPlan, error) {
	o := c.tr.begin(c.parent())
	p, err := c.lp.PlanLinearRepair(idx, shardSize, alive)
	c.tr.end(o, layerCore, "PlanLinearRepair", 0)
	return p, err
}

// tracedFetch records the time a repair spends inside its fetch
// callback as child spans, so the codec's self time (plan + decode) is
// its span minus these.
func (c *tracedCode) tracedFetch(parent open, fetch ec.FetchFunc) ec.FetchFunc {
	if parent.id == 0 {
		return fetch
	}
	return func(req ec.ReadRequest) ([]byte, error) {
		o := c.tr.begin(parent.id)
		buf, err := fetch(req)
		c.tr.end(o, layerFetch, "fetch", int64(len(buf)))
		return buf, err
	}
}

func (c *tracedCode) ExecuteRepair(idx int, shardSize int64, alive ec.AliveFunc, fetch ec.FetchFunc) ([]byte, error) {
	o := c.tr.begin(c.parent())
	out, err := c.Code.ExecuteRepair(idx, shardSize, alive, c.tracedFetch(o, fetch))
	c.tr.end(o, layerCore, "ExecuteRepair", int64(len(out)))
	return out, err
}

func (c *tracedCode) ExecuteMultiRepair(missing []int, shardSize int64, alive ec.AliveFunc, fetch ec.FetchFunc) (map[int][]byte, error) {
	o := c.tr.begin(c.parent())
	out, err := c.Code.ExecuteMultiRepair(missing, shardSize, alive, c.tracedFetch(o, fetch))
	var n int64
	for _, s := range out {
		n += int64(len(s))
	}
	c.tr.end(o, layerCore, "ExecuteMultiRepair", n)
	return out, err
}

// tracedStore times the two data-path calls of one datanode's
// BlockStore; everything else passes through the embedded store.
type tracedStore struct {
	hdfs.BlockStore
	tr *tracer
}

func (s *tracedStore) Get(id hdfs.BlockID) ([]byte, error) {
	o := s.tr.begin(0)
	data, err := s.BlockStore.Get(id)
	s.tr.end(o, layerExtent, "Get", int64(len(data)))
	return data, err
}

func (s *tracedStore) Put(id hdfs.BlockID, data []byte) error {
	o := s.tr.begin(0)
	err := s.BlockStore.Put(id, data)
	s.tr.end(o, layerExtent, "Put", int64(len(data)))
	return err
}

// budget is the per-layer time split the spans of a run add up to.
type budget struct {
	// Per root span, keyed by its name (ReadFile, Ingest, RunBlockFixer):
	// its duration and how that splits into codec self time, store time,
	// and the rest — framing, sockets, dispatch and metadata RPCs.
	opNs      map[string][]int64
	coreSelf  map[string][]int64
	storeNs   map[string][]int64
	serveSelf map[string][]int64
	// Totals over the run: time and calls through the ec.Code seam by
	// method, time inside fetch callbacks, and the store's Get and Put.
	coreNs    map[string]int64
	coreCalls map[string]int64
	fetchNs   int64
	getNs     int64
	getBytes  int64
	putNs     int64
	putBytes  int64
}

// unionNs is the total time covered by the intervals, counting
// overlaps once: parallel fixer tasks issue store reads concurrently,
// and time two of them share was spent once.
func unionNs(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	for _, x := range iv {
		switch {
		case first || x[0] > end:
			total += x[1] - x[0]
			end = x[1]
			first = false
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// analyse resolves store-span parents by time containment (the
// innermost fetch span of the same request that was open when the
// store call started, else the request's root) and derives each
// request's self times: a span's self time is its duration minus the
// part its children cover.
func (t *tracer) analyse() budget {
	b := budget{
		coreNs: map[string]int64{}, coreCalls: map[string]int64{},
		opNs: map[string][]int64{}, coreSelf: map[string][]int64{},
		storeNs: map[string][]int64{}, serveSelf: map[string][]int64{},
	}
	byOp := make(map[int64][]int)
	for i := range t.spans {
		byOp[t.spans[i].Op] = append(byOp[t.spans[i].Op], i)
	}
	for i := range t.spans {
		root := &t.spans[i]
		if root.Layer != layerClient {
			continue
		}
		var (
			fetches   []int
			store     [][2]int64
			coreSelf  int64
			fetchByID = map[int64]int64{} // codec span id -> time in its fetches
		)
		for _, j := range byOp[root.ID] {
			if s := &t.spans[j]; s.Layer == layerFetch {
				fetches = append(fetches, j)
				fetchByID[s.Parent] += s.Dur
				b.fetchNs += s.Dur
			}
		}
		for _, j := range byOp[root.ID] {
			s := &t.spans[j]
			switch s.Layer {
			case layerCore:
				b.coreNs[s.Name] += s.Dur
				b.coreCalls[s.Name]++
				self := s.Dur - fetchByID[s.ID]
				if self > 0 {
					coreSelf += self
				}
			case layerExtent:
				s.Parent = root.ID
				for _, f := range fetches {
					fs := &t.spans[f]
					if s.Start >= fs.Start && s.Start < fs.Start+fs.Dur {
						s.Parent = fs.ID
					}
				}
				store = append(store, [2]int64{s.Start, s.Start + s.Dur})
				if s.Name == "Get" {
					b.getNs, b.getBytes = b.getNs+s.Dur, b.getBytes+s.Bytes
				} else {
					b.putNs, b.putBytes = b.putNs+s.Dur, b.putBytes+s.Bytes
				}
			}
		}
		storeNs := unionNs(store)
		self := root.Dur - coreSelf - storeNs
		if self < 0 {
			self = 0
		}
		b.opNs[root.Name] = append(b.opNs[root.Name], root.Dur)
		b.coreSelf[root.Name] = append(b.coreSelf[root.Name], coreSelf)
		b.storeNs[root.Name] = append(b.storeNs[root.Name], storeNs)
		b.serveSelf[root.Name] = append(b.serveSelf[root.Name], self)
	}
	return b
}
