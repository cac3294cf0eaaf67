package repairmgr

import (
	"testing"
	"time"
)

// The detector tests are table-driven timelines over a fake clock:
// every step either delivers a heartbeat or evaluates timeouts at an
// exact offset from t0, and the expected transitions carry exact
// offsets too — late, jittered, flapping, and permanently lost
// heartbeat sequences produce exact alive/suspect/dead timelines with
// no wall-clock sleeps.

var t0 = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

// step is one timeline event: a heartbeat from node Beat (or an
// evaluation when Beat < 0) at offset At, expecting exactly Want.
type step struct {
	at   time.Duration
	beat int // -1 = Evaluate
	want []Transition
}

func tr(node int, from, to NodeState, at time.Duration) Transition {
	return Transition{Node: node, From: from, To: to, At: t0.Add(at)}
}

func runTimeline(t *testing.T, cfg DetectorConfig, nodes int, steps []step, finalStates map[int]NodeState) {
	t.Helper()
	d, err := NewDetector(nodes, cfg, t0)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range steps {
		var got []Transition
		if s.beat < 0 {
			got = d.Evaluate(t0.Add(s.at))
		} else {
			got, err = d.Heartbeat(s.beat, t0.Add(s.at))
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		if len(got) != len(s.want) {
			t.Fatalf("step %d (at %v): got %d transitions %v, want %d %v",
				i, s.at, len(got), got, len(s.want), s.want)
		}
		for j := range got {
			if got[j] != s.want[j] {
				t.Fatalf("step %d transition %d: got %+v, want %+v", i, j, got[j], s.want[j])
			}
		}
	}
	for node, want := range finalStates {
		if got := d.Snapshot()[node].State; got != want {
			t.Fatalf("final state of node %d: got %v, want %v", node, got, want)
		}
	}
}

func TestDetectorTimelines(t *testing.T) {
	cfg := DetectorConfig{SuspectAfter: 3 * time.Second, GraceWindow: 5 * time.Second}
	sec := time.Second

	cases := []struct {
		name  string
		cfg   DetectorConfig
		nodes int
		steps []step
		final map[int]NodeState
	}{
		{
			name:  "timely heartbeats never transition",
			cfg:   cfg,
			nodes: 2,
			steps: []step{
				{at: 1 * sec, beat: 0}, {at: 1 * sec, beat: 1},
				{at: 2 * sec, beat: -1},
				{at: 3 * sec, beat: 0}, {at: 3 * sec, beat: 1},
				{at: 5 * sec, beat: -1},
			},
			final: map[int]NodeState{0: StateAlive, 1: StateAlive},
		},
		{
			name:  "late but inside the window",
			cfg:   cfg,
			nodes: 1,
			steps: []step{
				// 2.9s of silence: one evaluation just under the
				// deadline sees nothing.
				{at: 2900 * time.Millisecond, beat: -1},
				{at: 2950 * time.Millisecond, beat: 0},
				{at: 5 * sec, beat: -1},
			},
			final: map[int]NodeState{0: StateAlive},
		},
		{
			name:  "jittered beats straddling the deadline",
			cfg:   cfg,
			nodes: 1,
			steps: []step{
				{at: 2 * sec, beat: 0},
				// Silence until 5.5s: suspect fired at exactly 2s+3s.
				{at: 5500 * time.Millisecond, beat: -1,
					want: []Transition{tr(0, StateAlive, StateSuspect, 5*sec)}},
				// Beat inside the grace window: back to alive — the
				// delayed-repair timer cancels.
				{at: 6 * sec, beat: 0,
					want: []Transition{tr(0, StateSuspect, StateAlive, 6*sec)}},
				{at: 8 * sec, beat: -1},
			},
			final: map[int]NodeState{0: StateAlive},
		},
		{
			name:  "flapping node",
			cfg:   cfg,
			nodes: 1,
			steps: []step{
				{at: 4 * sec, beat: -1,
					want: []Transition{tr(0, StateAlive, StateSuspect, 3*sec)}},
				{at: 5 * sec, beat: 0,
					want: []Transition{tr(0, StateSuspect, StateAlive, 5*sec)}},
				// Flap again: silent from 5s, suspect at exactly 8s.
				{at: 9 * sec, beat: -1,
					want: []Transition{tr(0, StateAlive, StateSuspect, 8*sec)}},
				{at: 10 * sec, beat: 0,
					want: []Transition{tr(0, StateSuspect, StateAlive, 10*sec)}},
			},
			final: map[int]NodeState{0: StateAlive},
		},
		{
			name:  "permanent loss walks both deadlines",
			cfg:   cfg,
			nodes: 2,
			steps: []step{
				{at: 2 * sec, beat: 1},
				{at: 4 * sec, beat: -1,
					want: []Transition{tr(0, StateAlive, StateSuspect, 3*sec)}},
				// Node 1 follows 2s later (last beat 2s): suspect at 5s.
				{at: 7 * sec, beat: -1,
					want: []Transition{tr(1, StateAlive, StateSuspect, 5*sec)}},
				{at: 8 * sec, beat: -1,
					want: []Transition{tr(0, StateSuspect, StateDead, 8*sec)}},
				{at: 9 * sec, beat: -1}, // node 1 still inside its grace
				{at: 10 * sec, beat: -1,
					want: []Transition{tr(1, StateSuspect, StateDead, 10*sec)}},
			},
			final: map[int]NodeState{0: StateDead, 1: StateDead},
		},
		{
			name:  "one late evaluation emits the whole history",
			cfg:   cfg,
			nodes: 1,
			steps: []step{
				// A single evaluation long after both deadlines emits
				// suspect AND dead, each stamped with its own deadline —
				// not the evaluation instant.
				{at: 60 * sec, beat: -1,
					want: []Transition{
						tr(0, StateAlive, StateSuspect, 3*sec),
						tr(0, StateSuspect, StateDead, 8*sec),
					}},
			},
			final: map[int]NodeState{0: StateDead},
		},
		{
			name:  "restart after death",
			cfg:   cfg,
			nodes: 1,
			steps: []step{
				{at: 20 * sec, beat: -1,
					want: []Transition{
						tr(0, StateAlive, StateSuspect, 3*sec),
						tr(0, StateSuspect, StateDead, 8*sec),
					}},
				{at: 25 * sec, beat: 0,
					want: []Transition{tr(0, StateDead, StateAlive, 25*sec)}},
				{at: 27 * sec, beat: -1},
			},
			final: map[int]NodeState{0: StateAlive},
		},
		{
			name:  "zero grace window is eager",
			cfg:   DetectorConfig{SuspectAfter: 3 * time.Second},
			nodes: 1,
			steps: []step{
				{at: 3 * sec, beat: -1,
					want: []Transition{
						tr(0, StateAlive, StateSuspect, 3*sec),
						tr(0, StateSuspect, StateDead, 3*sec),
					}},
			},
			final: map[int]NodeState{0: StateDead},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runTimeline(t, tc.cfg, tc.nodes, tc.steps, tc.final)
		})
	}
}

func TestDetectorOutOfOrderBeats(t *testing.T) {
	cfg := DetectorConfig{SuspectAfter: 3 * time.Second, GraceWindow: time.Second}
	d, err := NewDetector(1, cfg, t0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Heartbeat(0, t0.Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	// A delayed frame with an older timestamp must not rewind the beat.
	if _, err := d.Heartbeat(0, t0.Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := d.Evaluate(t0.Add(7 * time.Second)); len(got) != 0 {
		t.Fatalf("rewound heartbeat caused transitions: %v", got)
	}
}

func TestDetectorValidation(t *testing.T) {
	if _, err := NewDetector(0, DetectorConfig{SuspectAfter: time.Second}, t0); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := NewDetector(1, DetectorConfig{}, t0); err == nil {
		t.Fatal("zero SuspectAfter accepted")
	}
	if _, err := NewDetector(1, DetectorConfig{SuspectAfter: time.Second, GraceWindow: -1}, t0); err == nil {
		t.Fatal("negative GraceWindow accepted")
	}
	d, err := NewDetector(1, DetectorConfig{SuspectAfter: time.Second}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Heartbeat(7, t0); err == nil {
		t.Fatal("unknown node heartbeat accepted")
	}
}
