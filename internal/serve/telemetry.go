// Per-daemon telemetry plumbing: each daemon (namenode, every
// datanode) carries a nodeTelemetry — a handle on the System-wide
// metrics registry and an optional loopback /metrics listener. The
// generic server loop threads every RPC through it (per-method
// counters, latency histograms, byte counters), so instrumenting a
// daemon costs its handler nothing.
package serve

import (
	"time"

	"repro/internal/telemetry"
)

// TelemetryConfig parameterises WithTelemetry.
type TelemetryConfig struct {
	// HTTP starts a loopback listener per daemon serving /metrics (off
	// by default: tests that only want counters skip the listeners
	// entirely).
	//
	//repolint:ignore deadexport ROADMAP 6(d): pbrsctl explain scrapes a live system's /metrics
	HTTP bool
}

// nodeTelemetry is one daemon's observability handle. A nil
// *nodeTelemetry disables everything (the zero-cost default).
type nodeTelemetry struct {
	reg  *telemetry.Registry
	role string // metric label: "namenode" | "datanode"
	http *telemetry.DebugServer
}

// newNodeTelemetry builds the handle; the registry is the System-wide
// one, the HTTP listener is per-daemon.
func newNodeTelemetry(reg *telemetry.Registry, cfg TelemetryConfig, role string) (*nodeTelemetry, error) {
	nt := &nodeTelemetry{reg: reg, role: role}
	if cfg.HTTP {
		ds, err := telemetry.NewDebugServer(reg)
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
