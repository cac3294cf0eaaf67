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

// dispatch is the instrumented request path of the generic server: it
// charges the per-method instruments around the handler.
func (s *server) dispatch(req *request, payload []byte, lend *[]byte) (*response, []byte) {
	t := s.tele
	if t == nil {
		return s.safeHandle(req, payload, lend)
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
	return resp, out
}
