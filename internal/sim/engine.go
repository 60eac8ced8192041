// Package sim provides a deterministic discrete-event simulation engine:
// a time-ordered event queue and a run loop. It is the substrate replacing
// the Alvio event-driven simulator the paper extends.
//
// Determinism: events are totally ordered by (time, kind, sequence number),
// so two runs over the same input produce identical schedules. Completions
// sort before arrivals at equal timestamps so resources freed at time t are
// visible to jobs arriving at t.
package sim

import (
	"errors"
	"math"
)

// Time is simulation time in seconds from the start of the run.
type Time = float64

// EventKind distinguishes the event classes of the job scheduling
// simulation. Smaller kinds are processed first at equal timestamps.
type EventKind uint8

const (
	// EvEnd is a job completion (possibly earlier than its requested
	// time). Processed first so freed processors are available to
	// same-instant arrivals.
	EvEnd EventKind = iota
	// EvArrival is a job submission.
	EvArrival
)

// Event is one scheduled occurrence. Payload carries the subject (a job,
// typically); the engine never inspects it.
type Event struct {
	T       Time
	Kind    EventKind
	Payload any

	seq      uint64 // insertion order, final tie-breaker
	gen      uint32 // reuse generation; invalidates stale Handles
	canceled bool
	fired    bool // dispatched by Run; a late Cancel must not recount it
}

// Handle is the unique identity of a scheduled event, usable to cancel it.
// Handles stay valid across the engine's internal event reuse: a handle to
// a fired or canceled event is permanently inert.
type Handle struct {
	ev  *Event
	gen uint32
}

// eventHeap is a hand-rolled binary min-heap ordered by (T, Kind, seq).
// The direct implementation (instead of container/heap) keeps the
// comparison inlined and free of interface dispatch; it is the hottest
// loop of a simulation. Heap layout never affects dispatch order — the
// (T, Kind, seq) key is unique per event, so pops are totally ordered.
type eventHeap []*Event

// less is the total event order: time, then kind (completions before
// arrivals), then insertion sequence.
func less(a, b *Event) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(s[i], s[parent]) {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *eventHeap) pop() *Event {
	s := *h
	n := len(s) - 1
	ev := s[0]
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	s.down(0)
	return ev
}

// down sifts the event at i toward the leaves until neither child
// orders before it.
func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && less(h[r], h[l]) {
			min = r
		}
		if !less(h[min], h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// Engine is the event loop. The zero value is not usable; construct with
// NewEngine.
type Engine struct {
	queue   eventHeap
	now     Time
	nextSeq uint64
	stopped bool
	// pending counts non-canceled queued events so Len is O(1); it is
	// maintained by Schedule (+1), Cancel (−1) and Run's pops (−1 for
	// live events; canceled ones were already subtracted by Cancel).
	pending int
	// maxPending is the high-water mark of pending, the direct measure of
	// the engine's O(·) memory behavior over a run.
	maxPending int
	// dead counts the canceled events still queued. A canceled event
	// otherwise stays in the heap until its time comes round, so a run
	// that cancels and reschedules heavily — a power controller
	// re-gearing most running jobs every pass — would grow the heap by
	// one entry per cancel. Cancel compacts the queue once the dead
	// outnumber the live events by more than deadSlack, keeping the heap
	// O(pending) at O(1) amortized cost per cancel.
	dead int
	// pool recycles dispatched events so steady-state simulation allocates
	// no Event per Schedule. Reused events bump their generation, which
	// inertly expires any Handle still pointing at them.
	pool []*Event
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Len returns the number of pending (non-canceled) events.
func (e *Engine) Len() int { return e.pending }

// MaxPending returns the high-water mark of pending events over the
// engine's lifetime — with streamed arrivals it stays O(running jobs)
// where scheduling a whole trace upfront makes it O(trace).
func (e *Engine) MaxPending() int { return e.maxPending }

// ErrPastEvent is returned when scheduling before the current time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// Schedule enqueues an event at time t. Scheduling in the past or with a
// non-finite time is an error.
func (e *Engine) Schedule(t Time, kind EventKind, payload any) (Handle, error) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return Handle{}, errors.New("sim: non-finite event time")
	}
	if t < e.now {
		return Handle{}, ErrPastEvent
	}
	var ev *Event
	if n := len(e.pool); n > 0 {
		ev = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		ev.T, ev.Kind, ev.Payload = t, kind, payload
		ev.canceled, ev.fired = false, false
	} else {
		ev = &Event{T: t, Kind: kind, Payload: payload}
	}
	ev.seq = e.nextSeq
	e.nextSeq++
	e.queue.push(ev)
	e.pending++
	if e.pending > e.maxPending {
		e.maxPending = e.pending
	}
	return Handle{ev: ev, gen: ev.gen}, nil
}

// Cancel marks a scheduled event so it will be skipped. Canceling an
// already-fired or already-canceled event — or holding a handle past the
// event's reuse — is a no-op.
func (e *Engine) Cancel(h Handle) {
	if h.ev != nil && h.gen == h.ev.gen && !h.ev.canceled && !h.ev.fired {
		h.ev.canceled = true
		e.pending--
		e.dead++
		if e.dead > e.pending+deadSlack {
			e.compact()
		}
	}
}

// deadSlack keeps small queues from compacting over a handful of
// cancels.
const deadSlack = 64

// compact drops the canceled events from the queue and restores the heap
// order bottom-up. Dispatch order is unchanged: it follows the unique
// (T, Kind, seq) key, never the heap's layout.
func (e *Engine) compact() {
	q := e.queue
	live := q[:0]
	for _, ev := range q {
		if ev.canceled {
			e.recycle(ev)
		} else {
			live = append(live, ev)
		}
	}
	clear(q[len(live):])
	for i := len(live)/2 - 1; i >= 0; i-- {
		live.down(i)
	}
	e.queue = live
	e.dead = 0
}

// Stop makes Run return after the current event's handler completes. A
// Stop issued before Run makes it return immediately without dispatching;
// the engine stays stopped either way, so a later Run is also a no-op.
func (e *Engine) Stop() { e.stopped = true }

// recycle expires an event's handles and returns it to the pool.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.Payload = nil
	e.pool = append(e.pool, ev)
}

// Run dispatches events in order to handle until the queue drains or Stop
// is called. The handler may schedule further events.
func (e *Engine) Run(handle func(Event)) {
	for len(e.queue) > 0 && !e.stopped {
		ev := e.queue.pop()
		if ev.canceled {
			e.dead--
			e.recycle(ev)
			continue
		}
		ev.fired = true
		e.pending--
		e.now = ev.T
		handle(*ev)
		e.recycle(ev)
	}
}
