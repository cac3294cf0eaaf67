package netsim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
)

// Flow is one active transfer on the fabric. Fields are owned by the
// Simulator; callers read them after completion.
type Flow struct {
	// ID orders flows deterministically (assigned at StartFlow).
	ID int64
	// Src and Dst are machine ids.
	Src, Dst int
	// Bytes is the flow's total size.
	Bytes int64
	// Class is the flow's priority class.
	Class Class
	// Start and End are the simulated start and completion times in
	// seconds; End is NaN until the flow completes.
	Start, End float64

	remaining float64
	rate      float64
	links     []int
	frozen    bool
	done      bool
	onDone    func(now float64)
}

// timer is a scheduled callback.
type timer struct {
	at  float64
	seq int64
	fn  func()
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)     { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)       { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() any         { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }
func (h timerHeap) peek() *timer      { return h[0] }
func (h timerHeap) empty() bool       { return len(h) == 0 }
func (h *timerHeap) push(t *timer)    { heap.Push(h, t) }
func (h *timerHeap) popTimer() *timer { return heap.Pop(h).(*timer) }

// Simulator owns the clock, the event queue, and the active flow set of
// one fabric. It is not safe for concurrent use; a simulation is a
// single-threaded replay.
type Simulator struct {
	fabric  *fabric
	now     float64
	timers  timerHeap
	active  []*Flow
	nextID  int64
	nextSeq int64
	dirty   bool
}

// NewSimulator builds an empty simulation over the topology.
func NewSimulator(t Topology) (*Simulator, error) {
	f, err := newFabric(t)
	if err != nil {
		return nil, err
	}
	return &Simulator{fabric: f}, nil
}

// Topology returns the fabric's topology.
func (s *Simulator) Topology() Topology { return s.fabric.topo }

// Now returns the current simulated time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// At schedules fn to run at simulated time t (clamped to now).
func (s *Simulator) At(t float64, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.nextSeq++
	s.timers.push(&timer{at: t, seq: s.nextSeq, fn: fn})
}

// StartFlow begins a transfer at the current time. onDone, if non-nil,
// runs when the last byte arrives (it may start further flows). A flow
// of zero bytes (or a loopback) completes at the current time, but its
// onDone still runs from the event loop, never synchronously.
func (s *Simulator) StartFlow(src, dst int, bytes int64, class Class, onDone func(now float64)) (*Flow, error) {
	m := s.fabric.topo.Machines()
	if src < 0 || src >= m || dst < 0 || dst >= m {
		return nil, fmt.Errorf("netsim: flow endpoints %d->%d out of range [0,%d)", src, dst, m)
	}
	if bytes < 0 {
		return nil, fmt.Errorf("netsim: negative flow size %d", bytes)
	}
	if class < 0 || class >= numClasses {
		return nil, fmt.Errorf("netsim: invalid class %d", class)
	}
	s.nextID++
	fl := &Flow{
		ID:        s.nextID,
		Src:       src,
		Dst:       dst,
		Bytes:     bytes,
		Class:     class,
		Start:     s.now,
		End:       math.NaN(),
		remaining: float64(bytes),
		links:     s.fabric.path(src, dst),
		onDone:    onDone,
	}
	s.active = append(s.active, fl)
	s.dirty = true
	return fl, nil
}

// ActiveFlows returns the number of flows currently in flight.
//
//repolint:ignore deadexport ROADMAP 9: netsim is kept or deleted by its agreement with the live shaper
func (s *Simulator) ActiveFlows() int { return len(s.active) }

// completionEpsilon treats a flow with less than this many bytes left
// as finished, absorbing floating-point drift from rate integration.
const completionEpsilon = 1e-6

// Run advances the simulation until no events remain or the clock
// passes deadline (use math.Inf(1) for no deadline). It returns an
// error if flows remain active but none can make progress — which can
// only happen if priority traffic permanently starves a class and no
// timer is pending to change that.
func (s *Simulator) Run(deadline float64) error {
	for {
		if len(s.active) == 0 && s.timers.empty() {
			return nil
		}
		if s.dirty {
			s.fabric.computeRates(s.active)
			s.dirty = false
		}
		// Next flow completion.
		tFinish := math.Inf(1)
		for _, fl := range s.active {
			if fl.rate > 0 {
				if t := s.now + fl.remaining/fl.rate; t < tFinish {
					tFinish = t
				}
			} else if fl.remaining <= completionEpsilon {
				tFinish = s.now
			}
		}
		// Next timer.
		tTimer := math.Inf(1)
		if !s.timers.empty() {
			tTimer = s.timers.peek().at
		}
		t := math.Min(tFinish, tTimer)
		if math.IsInf(t, 1) {
			if len(s.active) > 0 {
				return errors.New("netsim: deadlock — active flows starved with no pending events")
			}
			return nil
		}
		if t > deadline {
			return nil
		}
		// Integrate transferred bytes up to t.
		dt := t - s.now
		if dt > 0 {
			for _, fl := range s.active {
				if !math.IsInf(fl.rate, 1) {
					fl.remaining -= fl.rate * dt
				} else {
					fl.remaining = 0
				}
			}
		} else {
			for _, fl := range s.active {
				if math.IsInf(fl.rate, 1) {
					fl.remaining = 0
				}
			}
		}
		s.now = t
		// Fire due timers (they may start flows or schedule more).
		for !s.timers.empty() && s.timers.peek().at <= s.now {
			s.timers.popTimer().fn()
		}
		// Retire completed flows in ID order; onDone callbacks may
		// start new flows, which join next round. Two completion
		// conditions: the byte epsilon (a recompute may have starved a
		// flow at rate zero after its last real byte moved), and a
		// projected finish that cannot advance the clock — once
		// remaining/rate drops below the ulp of the current time,
		// waiting any longer is pure floating-point spin.
		var still []*Flow
		var finished []*Flow
		for _, fl := range s.active {
			if fl.remaining <= completionEpsilon ||
				(fl.rate > 0 && s.now+fl.remaining/fl.rate <= s.now) {
				fl.done = true
				fl.End = s.now
				finished = append(finished, fl)
			} else {
				still = append(still, fl)
			}
		}
		if len(finished) > 0 {
			s.active = still
			s.dirty = true
			for _, fl := range finished {
				if fl.onDone != nil {
					fl.onDone(s.now)
				}
			}
		}
	}
}

// Duration returns the flow's transfer time in seconds, or NaN if it
// has not completed.
func (f *Flow) Duration() float64 { return f.End - f.Start }

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

// Rate returns the flow's most recently computed rate in bytes/second
// (for tests and instrumentation).
func (f *Flow) Rate() float64 { return f.rate }
