package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("scrapes_total").Add(2)

	d, err := NewDebugServer(reg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), "scrapes_total 2") {
		t.Fatalf("/metrics = %d %q", code, body)
	}

	code, body = get(t, base+"/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("/metrics?format=json = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	if snap.Counters["scrapes_total"] != 2 {
		t.Fatalf("json snapshot wrong: %+v", snap)
	}

	// Nothing but /metrics is served.
	if code, _ = get(t, base+"/debug/traces"); code != http.StatusNotFound {
		t.Fatalf("/debug/traces = %d, want 404", code)
	}
}
