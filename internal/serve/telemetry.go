// Per-daemon telemetry plumbing: each daemon (namenode, every
// datanode) carries a nodeTelemetry — a handle on the System-wide
// metrics registry and the daemon's role label. The generic server
// loop threads every RPC through it (per-method counters, latency
// histograms, byte counters), so instrumenting a daemon costs its
// handler nothing. System.Telemetry().Snapshot() reads the result.
package serve

import (
	"time"

	"repro/internal/telemetry"
)

// TelemetryConfig parameterises WithTelemetry. It has no fields: the
// registry is the only observability surface.
type TelemetryConfig struct{}

// nodeTelemetry is one daemon's observability handle. A nil
// *nodeTelemetry disables everything (the zero-cost default).
type nodeTelemetry struct {
	reg  *telemetry.Registry
	role string // metric label: "namenode" | "datanode"
}

// rpcMetric builds a per-method instrument name, e.g.
// rpc_requests_total{role="datanode",method="dn.read"}.
func rpcMetric(base, role, method string) string {
	return base + `{role="` + role + `",method="` + method + `"}`
}

// clock starts the timing of one request: the zero time when the
// daemon keeps no instruments.
func (s *server) clock() time.Time {
	if s.tele == nil {
		return time.Time{}
	}
	return time.Now()
}

// record charges one request to its method's instruments: its count,
// the time since start (the handler's, and a sent replica's send), the
// request and response payload bytes, and an error when resp is one.
func (s *server) record(req *request, in int, resp *response, out int64, start time.Time) {
	t := s.tele
	if t == nil || t.reg == nil {
		return
	}
	reg := t.reg
	reg.Counter(rpcMetric("rpc_requests_total", t.role, req.Method)).Inc()
	reg.Histogram(rpcMetric("rpc_request_seconds", t.role, req.Method), telemetry.LatencyBuckets).
		Observe(time.Since(start).Seconds())
	reg.Counter(rpcMetric("rpc_request_bytes_total", t.role, req.Method)).Add(int64(in))
	reg.Counter(rpcMetric("rpc_response_bytes_total", t.role, req.Method)).Add(out)
	if !resp.OK {
		reg.Counter(rpcMetric("rpc_errors_total", t.role, req.Method)).Inc()
	}
}
