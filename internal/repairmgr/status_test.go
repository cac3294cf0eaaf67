package repairmgr

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestStatusUptimeAndPollLiveness pins the control-loop liveness
// fields on Status: uptime tracks the injected clock from New,
// SecondsSincePoll is -1 until the first Poll and then measures the
// gap to the last one (a growing value is a stalled loop, not an idle
// one), and PollCount counts completed iterations.
func TestStatusUptimeAndPollLiveness(t *testing.T) {
	h := newHarness(t, Config{SuspectAfter: time.Hour, GraceWindow: time.Hour})
	steps := []struct {
		name       string
		advance    time.Duration
		poll       bool
		wantUptime float64
		wantSince  float64
		wantPolls  int64
	}{
		{"fresh manager, never polled", 0, false, 0, -1, 0},
		{"idle 10s, still never polled", 10 * time.Second, false, 10, -1, 0},
		{"first poll stamps liveness", 0, true, 10, 0, 1},
		{"5s after the poll the gap grows", 5 * time.Second, false, 15, 5, 1},
		{"second poll resets the gap", 0, true, 15, 0, 2},
		{"90s of silence reads as a stall", 90 * time.Second, false, 105, 90, 2},
	}
	for _, step := range steps {
		h.clk.Advance(step.advance)
		if step.poll {
			if err := h.mgr.Poll(); err != nil {
				t.Fatalf("%s: poll: %v", step.name, err)
			}
		}
		st := h.mgr.Status()
		if st.UptimeSeconds != step.wantUptime || st.SecondsSincePoll != step.wantSince || st.PollCount != step.wantPolls {
			t.Errorf("%s: uptime=%v sincePoll=%v polls=%d, want %v / %v / %d",
				step.name, st.UptimeSeconds, st.SecondsSincePoll, st.PollCount,
				step.wantUptime, step.wantSince, step.wantPolls)
		}
	}
}

// TestStatusJSONNamesStatesAndKinds: a Status crosses the wire as JSON
// with detector states and repair kinds by name, and decodes back to
// the same values.
func TestStatusJSONNamesStatesAndKinds(t *testing.T) {
	in := Status{
		Nodes:     []NodeStatus{{Machine: 0, State: StateAlive}, {Machine: 1, State: StateSuspect}, {Machine: 2, State: StateDead}},
		Completed: []CompletedRepair{{Seq: 1, Kind: TaskStripe}, {Seq: 2, Kind: TaskReplicated}},
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{`"alive"`, `"suspect"`, `"dead"`, `"stripe"`, `"replicated"`} {
		if !strings.Contains(string(raw), name) {
			t.Errorf("JSON lacks %s: %s", name, raw)
		}
	}
	var out Status
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Nodes, in.Nodes) || !reflect.DeepEqual(out.Completed, in.Completed) {
		t.Fatalf("round trip: %+v, want %+v", out, in)
	}
	if err := json.Unmarshal([]byte(`{"Nodes":[{"State":"gone"}]}`), &out); err == nil {
		t.Fatal("an unknown state name decoded")
	}
}
