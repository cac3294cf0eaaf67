// Live exposure: a loopback HTTP listener serving the registry at
// /metrics (Prometheus text format; ?format=json for the snapshot
// JSON). Each serving daemon runs its own DebugServer, so scraping a
// datanode shows that process's view.
package telemetry

import (
	"net"
	"net/http"
)

// DebugServer is one process's /metrics endpoint: a loopback HTTP
// listener over its registry.
type DebugServer struct {
	reg *Registry
	ln  net.Listener
	srv *http.Server
}

// NewDebugServer starts an HTTP listener on an ephemeral loopback port
// serving /metrics. reg may be nil (the endpoint then serves an empty
// view). Close releases the listener.
func NewDebugServer(reg *Registry) (*DebugServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &DebugServer{reg: reg, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", d.handleMetrics)
	d.srv = &http.Server{Handler: mux}
	go func() {
		// Serve returns when Close tears the listener down; the error is
		// the expected ErrServerClosed/closed-listener signal.
		_ = d.srv.Serve(ln)
	}()
	return d, nil
}

// Addr returns the listener address ("127.0.0.1:port").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the listener and severs open scrape connections.
func (d *DebugServer) Close() error {
	return d.srv.Close()
}

// handleMetrics renders the registry snapshot: Prometheus text by
// default, the snapshot JSON with ?format=json.
func (d *DebugServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := d.reg.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		blob, err := snap.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write(blob); err != nil {
			return // scraper hung up mid-body; nothing to recover
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if _, err := w.Write(snap.PrometheusText()); err != nil {
		return
	}
}
