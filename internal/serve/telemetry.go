// Per-daemon telemetry plumbing: each daemon (namenode, every
// datanode) carries a nodeTelemetry — a handle on the System-wide
// metrics registry, its own bounded span store, and an optional
// loopback debug HTTP listener. The generic server loop threads every
// RPC through it (per-method counters, latency histograms, byte
// counters, span minting), so instrumenting a daemon costs its handler
// nothing.
package serve

import (
	"time"

	"repro/internal/telemetry"
)

// TelemetryConfig parameterises WithTelemetry.
type TelemetryConfig struct {
	// HTTP starts a loopback debug listener per daemon serving /metrics
	// and /debug/traces (off by default: tests that only want counters
	// skip the listeners entirely).
	HTTP bool
	// SpanBuffer caps each daemon's in-memory span store (default
	// telemetry.DefaultSpanBuffer).
	SpanBuffer int
}

// nodeTelemetry is one daemon's observability handle. A nil
// *nodeTelemetry disables everything (the zero-cost default).
type nodeTelemetry struct {
	reg   *telemetry.Registry
	spans *telemetry.SpanStore
	role  string // metric label: "namenode" | "datanode"
	proc  string // span process: "namenode", "datanode-3"
	http  *telemetry.DebugServer
}

// newNodeTelemetry builds the handle; the registry is the System-wide
// one, the span store and HTTP listener are per-daemon.
func newNodeTelemetry(reg *telemetry.Registry, cfg TelemetryConfig, role, proc string) (*nodeTelemetry, error) {
	nt := &nodeTelemetry{
		reg:   reg,
		spans: telemetry.NewSpanStore(cfg.SpanBuffer),
		role:  role,
		proc:  proc,
	}
	if cfg.HTTP {
		ds, err := telemetry.NewDebugServer(reg, nt.spans)
		if err != nil {
			return nil, err
		}
		nt.http = ds
	}
	return nt, nil
}

// debugAddr returns the daemon's debug HTTP address ("" when disabled).
func (t *nodeTelemetry) debugAddr() string {
	if t == nil || t.http == nil {
		return ""
	}
	return t.http.Addr()
}

// close releases the debug listener (nil-safe).
func (t *nodeTelemetry) close() {
	if t != nil && t.http != nil {
		t.http.Close()
	}
}

// rpcMetric builds a per-method instrument name, e.g.
// rpc_requests_total{role="datanode",method="dn.read"}.
func rpcMetric(base, role, method string) string {
	return base + `{role="` + role + `",method="` + method + `"}`
}

// dispatch is the instrumented request path of the generic server: it
// answers debug.trace itself, mints a server span for sampled requests
// (rewriting the header's span id so the handler's downstream calls
// parent under it), and charges the per-method instruments.
func (s *server) dispatch(req *request, payload []byte, lend *[]byte) (*response, []byte) {
	t := s.tele
	if t == nil {
		if req.Method == methodDebugTrace {
			return errResponse(errTracingDisabled), nil
		}
		return s.safeHandle(req, payload, lend)
	}
	if req.Method == methodDebugTrace {
		if req.TraceID != 0 {
			return coldResponse(t.spans.Trace(req.TraceID)), nil
		}
		return coldResponse(t.spans.Spans()), nil
	}

	sampled := req.Trace != nil && req.Trace.Sampled
	var parentID uint64
	if sampled {
		parentID = req.Trace.SpanID
		req.Trace.SpanID = telemetry.NewID()
	}
	start := time.Now()
	resp, out := s.safeHandle(req, payload, lend)
	elapsed := time.Since(start)

	if reg := t.reg; reg != nil {
		reg.Counter(rpcMetric("rpc_requests_total", t.role, req.Method)).Inc()
		reg.Histogram(rpcMetric("rpc_request_seconds", t.role, req.Method), telemetry.LatencyBuckets).
			Observe(elapsed.Seconds())
		reg.Counter(rpcMetric("rpc_request_bytes_total", t.role, req.Method)).Add(int64(len(payload)))
		reg.Counter(rpcMetric("rpc_response_bytes_total", t.role, req.Method)).Add(int64(len(out)))
		if !resp.OK {
			reg.Counter(rpcMetric("rpc_errors_total", t.role, req.Method)).Inc()
		}
	}
	if sampled {
		t.spans.Add(telemetry.Span{
			TraceID:       req.Trace.TraceID,
			SpanID:        req.Trace.SpanID,
			ParentID:      parentID,
			Name:          req.Method,
			Process:       t.proc,
			StartUnixNano: start.UnixNano(),
			DurationNanos: int64(elapsed),
			Bytes:         int64(len(out)),
			Err:           resp.Err,
		})
	}
	return resp, out
}
