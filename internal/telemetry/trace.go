// Request tracing: one sampled operation (a degraded read) mints a
// TraceContext that rides the RPC header through every hop — namenode
// metadata calls, datanode range reads, and the recursive dn.partial
// child fetches of a partial-sum fold tree — so the spans recorded
// along the way assemble into the operation's complete tree. Spans are
// buffered in a bounded per-process SpanStore and collected afterwards
// over the serve layer's debug.trace RPC.
package telemetry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// TraceContext is the trace header carried by a sampled RPC: the trace
// it belongs to, the span id of the CALLER (the server minting a span
// for the request uses it as the parent), and the sampling decision.
// JSON tags are the wire encoding the serve layer embeds verbatim.
type TraceContext struct {
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
	Sampled bool   `json:"sampled,omitempty"`
}

// Span is one recorded hop of a trace. ParentID zero marks a root.
type Span struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id,omitempty"`
	// Name is the operation ("degraded_read", an RPC method name);
	// Process identifies the recording daemon ("client", "namenode",
	// "datanode-3").
	Name    string `json:"name"`
	Process string `json:"process,omitempty"`
	// StartUnixNano and DurationNanos time the hop; Bytes is the
	// payload it delivered (response payload for a server span, bytes
	// received for a client span).
	StartUnixNano int64  `json:"start_unix_nano,omitempty"`
	DurationNanos int64  `json:"duration_nanos,omitempty"`
	Bytes         int64  `json:"bytes,omitempty"`
	Err           string `json:"err,omitempty"`
}

// idCounter feeds NewID. Every daemon of a test system lives in one OS
// process, so a process-wide counter guarantees span/trace uniqueness
// across all of them; starting at 1 keeps 0 meaning "no parent".
var idCounter atomic.Uint64

// NewID returns a process-unique non-zero id.
func NewID() uint64 { return idCounter.Add(1) }

// DefaultSpanBuffer is the default SpanStore capacity.
const DefaultSpanBuffer = 4096

// SpanStore is a bounded ring of recorded spans: one per process, so a
// runaway sampler degrades to dropped-oldest, never to unbounded
// memory. Safe for concurrent use; nil-receiver methods no-op.
type SpanStore struct {
	mu      sync.Mutex
	buf     []Span
	next    int
	full    bool
	dropped int64
}

// NewSpanStore builds a store holding at most capacity spans
// (DefaultSpanBuffer when capacity <= 0).
func NewSpanStore(capacity int) *SpanStore {
	if capacity <= 0 {
		capacity = DefaultSpanBuffer
	}
	return &SpanStore{buf: make([]Span, 0, capacity)}
}

// Add records one span, evicting the oldest when full. No-op on nil.
func (s *SpanStore) Add(sp Span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, sp)
		return
	}
	s.buf[s.next] = sp
	s.next = (s.next + 1) % cap(s.buf)
	s.full = true
	s.dropped++
}

// Spans returns every buffered span, oldest first (nil store: none).
func (s *SpanStore) Spans() []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Span, 0, len(s.buf))
	if s.full {
		out = append(out, s.buf[s.next:]...)
		out = append(out, s.buf[:s.next]...)
	} else {
		out = append(out, s.buf...)
	}
	return out
}

// Trace returns the buffered spans of one trace id.
func (s *SpanStore) Trace(traceID uint64) []Span {
	var out []Span
	for _, sp := range s.Spans() {
		if sp.TraceID == traceID {
			out = append(out, sp)
		}
	}
	return out
}

// Dropped reports how many spans eviction discarded.
func (s *SpanStore) Dropped() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// SpanNode is one node of an assembled span tree.
type SpanNode struct {
	Span
	Children []*SpanNode
}

// BuildTree assembles spans (all of one trace) into their tree and
// validates the structure: exactly one root, unique span ids, every
// parent present (no orphans), and every span reachable from the root
// (no cycles). This is the property the trace-propagation tests pin.
//
//repolint:ignore deadexport ROADMAP 6(d): pbrsctl explain walks the trace tree for its critical path
func BuildTree(spans []Span) (*SpanNode, error) {
	if len(spans) == 0 {
		return nil, errors.New("telemetry: no spans")
	}
	nodes := make(map[uint64]*SpanNode, len(spans))
	for _, sp := range spans {
		if sp.SpanID == 0 {
			return nil, fmt.Errorf("telemetry: span %q has zero id", sp.Name)
		}
		if _, dup := nodes[sp.SpanID]; dup {
			return nil, fmt.Errorf("telemetry: duplicate span id %d", sp.SpanID)
		}
		nodes[sp.SpanID] = &SpanNode{Span: sp}
	}
	var root *SpanNode
	for _, n := range nodes {
		if n.ParentID == 0 {
			if root != nil {
				return nil, fmt.Errorf("telemetry: multiple roots (spans %d and %d)", root.SpanID, n.SpanID)
			}
			root = n
			continue
		}
		parent, ok := nodes[n.ParentID]
		if !ok {
			return nil, fmt.Errorf("telemetry: span %d orphaned (parent %d missing)", n.SpanID, n.ParentID)
		}
		parent.Children = append(parent.Children, n)
	}
	if root == nil {
		return nil, errors.New("telemetry: no root span")
	}
	// Deterministic child order for renderers and tests.
	var sortChildren func(n *SpanNode)
	sortChildren = func(n *SpanNode) {
		sort.Slice(n.Children, func(i, j int) bool {
			a, b := n.Children[i], n.Children[j]
			if a.StartUnixNano != b.StartUnixNano {
				return a.StartUnixNano < b.StartUnixNano
			}
			return a.SpanID < b.SpanID
		})
		for _, c := range n.Children {
			sortChildren(c)
		}
	}
	sortChildren(root)
	// Reachability: with one root and no orphans, an unreachable span
	// can only sit on a parent cycle.
	seen := 0
	var walk func(n *SpanNode)
	walk = func(n *SpanNode) {
		seen++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	if seen != len(nodes) {
		return nil, fmt.Errorf("telemetry: %d of %d spans unreachable from root (parent cycle)", len(nodes)-seen, len(nodes))
	}
	return root, nil
}

// Walk visits the tree depth-first, root included.
func (n *SpanNode) Walk(fn func(*SpanNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}
