package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsDispatchInTimeOrder(t *testing.T) {
	e := NewEngine()
	times := []Time{5, 1, 3, 2, 4}
	for _, tm := range times {
		if _, err := e.Schedule(tm, EvArrival, tm); err != nil {
			t.Fatal(err)
		}
	}
	var got []Time
	e.Run(func(ev Event) { got = append(got, ev.T) })
	if !sort.Float64sAreSorted(got) {
		t.Errorf("events out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Errorf("dispatched %d events, want %d", len(got), len(times))
	}
}

func TestEndBeforeArrivalAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []EventKind
	// Insert the arrival first so insertion order alone would dispatch
	// it first; kind ordering must win.
	e.Schedule(10, EvArrival, nil)
	e.Schedule(10, EvEnd, nil)
	e.Run(func(ev Event) { order = append(order, ev.Kind) })
	if order[0] != EvEnd || order[1] != EvArrival {
		t.Errorf("order = %v, want End before Arrival", order)
	}
}

func TestFIFOAtEqualTimeAndKind(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		e.Schedule(7, EvArrival, i)
	}
	e.Run(func(ev Event) { got = append(got, ev.Payload.(int)) })
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time same-kind events not FIFO: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := NewEngine()
	e.Schedule(3, EvArrival, nil)
	e.Schedule(9, EvArrival, nil)
	var at []Time
	e.Run(func(ev Event) { at = append(at, e.Now()) })
	if at[0] != 3 || at[1] != 9 {
		t.Errorf("Now() during dispatch = %v", at)
	}
	if e.Now() != 9 {
		t.Errorf("final Now() = %v, want 9", e.Now())
	}
}

func TestScheduleFromHandler(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, EvArrival, nil)
	count := 0
	e.Run(func(ev Event) {
		count++
		if count < 5 {
			if _, err := e.Schedule(e.Now()+1, EvArrival, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	if count != 5 {
		t.Errorf("chained dispatch count = %d, want 5", count)
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, EvArrival, nil)
	e.Run(func(ev Event) {
		if _, err := e.Schedule(5, EvArrival, nil); err != ErrPastEvent {
			t.Errorf("past scheduling error = %v, want ErrPastEvent", err)
		}
	})
}

func TestScheduleNonFiniteRejected(t *testing.T) {
	e := NewEngine()
	if _, err := e.Schedule(math.NaN(), EvArrival, nil); err == nil {
		t.Error("NaN time accepted")
	}
	if _, err := e.Schedule(math.Inf(1), EvArrival, nil); err == nil {
		t.Error("Inf time accepted")
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	h, _ := e.Schedule(5, EvEnd, "canceled")
	e.Schedule(6, EvArrival, "kept")
	e.Cancel(h)
	e.Cancel(h) // double cancel is a no-op
	e.Cancel(Handle{})
	var got []any
	e.Run(func(ev Event) { got = append(got, ev.Payload) })
	if len(got) != 1 || got[0] != "kept" {
		t.Errorf("dispatched = %v, want only the kept event", got)
	}
}

func TestLenSkipsCanceled(t *testing.T) {
	e := NewEngine()
	h, _ := e.Schedule(1, EvArrival, nil)
	e.Schedule(2, EvArrival, nil)
	if e.Len() != 2 {
		t.Errorf("Len = %d, want 2", e.Len())
	}
	e.Cancel(h)
	if e.Len() != 1 {
		t.Errorf("Len after cancel = %d, want 1", e.Len())
	}
}

// Len is a live counter, not a heap scan; it must stay exact across every
// combination of cancel and pop, including canceling after the event fired.
func TestLenAcrossCancelThenPop(t *testing.T) {
	e := NewEngine()
	h1, _ := e.Schedule(1, EvArrival, nil)
	h2, _ := e.Schedule(2, EvArrival, nil)
	e.Schedule(3, EvArrival, nil)
	e.Cancel(h1)
	if e.Len() != 2 {
		t.Fatalf("Len after cancel = %d, want 2", e.Len())
	}
	// Pop everything: the canceled event is skipped, the two live ones
	// fire, and Len must track each pop down to zero.
	var lens []int
	e.Run(func(Event) { lens = append(lens, e.Len()) })
	if len(lens) != 2 || lens[0] != 1 || lens[1] != 0 {
		t.Errorf("Len during drain = %v, want [1 0]", lens)
	}
	if e.Len() != 0 {
		t.Errorf("Len after drain = %d, want 0", e.Len())
	}
	// Canceling handles after their events fired (or were already
	// canceled) must not drive the counter negative.
	e.Cancel(h1)
	e.Cancel(h2)
	if e.Len() != 0 {
		t.Errorf("Len after late cancels = %d, want 0", e.Len())
	}
	if _, err := e.Schedule(10, EvArrival, nil); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 1 {
		t.Errorf("Len after reschedule = %d, want 1", e.Len())
	}
}

// Property: Len always equals the number of live (scheduled, not canceled,
// not yet fired) events, under random schedule/cancel interleavings.
func TestQuickLenMatchesLive(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		live := 0
		var handles []Handle
		for i := 0; i < int(n%80); i++ {
			h, _ := e.Schedule(Time(r.Intn(50)), EvArrival, nil)
			handles = append(handles, h)
			live++
			if r.Intn(4) == 0 {
				victim := handles[r.Intn(len(handles))]
				if !victim.ev.canceled {
					live--
				}
				e.Cancel(victim)
				e.Cancel(victim) // double cancel must not double count
			}
			if e.Len() != live {
				return false
			}
		}
		e.Run(func(Event) { live-- })
		return e.Len() == 0 && live == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), EvArrival, nil)
	}
	count := 0
	e.Run(func(ev Event) {
		count++
		if count == 3 {
			e.Stop()
		}
	})
	if count != 3 {
		t.Errorf("dispatched %d events after Stop, want 3", count)
	}
	if e.Len() != 7 {
		t.Errorf("remaining = %d, want 7", e.Len())
	}
}

// Property: any set of scheduled events is dispatched in non-decreasing
// time order with Ends before Arrivals at equal times.
func TestQuickDispatchOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		total := int(n%50) + 1
		for i := 0; i < total; i++ {
			kind := EvArrival
			if r.Intn(2) == 0 {
				kind = EvEnd
			}
			e.Schedule(Time(r.Intn(20)), kind, nil)
		}
		var last Event
		first := true
		ok := true
		e.Run(func(ev Event) {
			if !first {
				if ev.T < last.T {
					ok = false
				}
				if ev.T == last.T && ev.Kind < last.Kind {
					ok = false
				}
			}
			last, first = ev, false
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the engine drains exactly the number of non-canceled events.
func TestQuickDrainCount(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		total := int(n % 60)
		canceled := 0
		for i := 0; i < total; i++ {
			h, _ := e.Schedule(Time(r.Intn(100)), EvArrival, nil)
			if r.Intn(3) == 0 {
				e.Cancel(h)
				canceled++
			}
		}
		got := 0
		e.Run(func(Event) { got++ })
		return got == total-canceled
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStopBeforeRunReturnsImmediately(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), EvArrival, nil)
	}
	e.Stop()
	count := 0
	e.Run(func(Event) { count++ })
	if count != 0 {
		t.Errorf("dispatched %d events after pre-Run Stop, want 0", count)
	}
	if e.Len() != 5 {
		t.Errorf("Len = %d, want 5 (events must survive a stopped Run)", e.Len())
	}
	// The engine stays stopped: a second Run is also a no-op.
	e.Run(func(Event) { count++ })
	if count != 0 {
		t.Errorf("dispatched %d events on re-Run after Stop, want 0", count)
	}
}

// A handle held past its event's dispatch must stay inert even when the
// engine reuses the event's memory for a later Schedule.
func TestStaleHandleCannotCancelReusedEvent(t *testing.T) {
	e := NewEngine()
	h1, _ := e.Schedule(1, EvEnd, "first")
	e.Run(func(Event) {})
	// h1's event is now in the pool; the next Schedule reuses it.
	h2, _ := e.Schedule(2, EvEnd, "second")
	if h2.ev != h1.ev {
		t.Skip("allocator did not reuse the event; nothing to check")
	}
	e.Cancel(h1) // stale: must not cancel the second event
	got := 0
	e.Run(func(ev Event) {
		got++
		if ev.Payload != "second" {
			t.Errorf("payload = %v, want second", ev.Payload)
		}
	})
	if got != 1 {
		t.Errorf("dispatched %d events, want 1 (stale cancel must be a no-op)", got)
	}
	if e.Len() != 0 {
		t.Errorf("Len = %d, want 0", e.Len())
	}
}

// The pooled engine must dispatch exactly the sequence of a naive
// reference that keeps every scheduled event in a list and always fires
// the least (T, Kind, seq) one, while the handler schedules new events
// as dispatched ones recycle.
func TestPoolingDoesNotChangeDispatchOrder(t *testing.T) {
	type key struct {
		t    Time
		kind EventKind
		seq  int
	}
	// step is the shared handler body: whatever fires, schedule an end and
	// an arrival at the next odd instant until t=10.
	step := func(next *Time, schedule func(Time, EventKind)) {
		if *next <= 10 {
			schedule(*next, EvEnd)
			schedule(*next, EvArrival)
			*next += 2
		}
	}

	e := NewEngine()
	var pooled []key
	seq := 0
	schedule := func(at Time, kind EventKind) {
		if _, err := e.Schedule(at, kind, seq); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	schedule(0, EvArrival)
	next := Time(1)
	e.Run(func(ev Event) {
		pooled = append(pooled, key{ev.T, ev.Kind, ev.Payload.(int)})
		step(&next, schedule)
	})

	var list, want []key
	seq = 0
	ref := func(at Time, kind EventKind) {
		list = append(list, key{at, kind, seq})
		seq++
	}
	ref(0, EvArrival)
	next = 1
	for len(list) > 0 {
		m := 0
		for i, k := range list {
			b := list[m]
			if k.t < b.t || (k.t == b.t && (k.kind < b.kind || (k.kind == b.kind && k.seq < b.seq))) {
				m = i
			}
		}
		want = append(want, list[m])
		list = append(list[:m], list[m+1:]...)
		step(&next, ref)
	}
	if len(pooled) != len(want) {
		t.Fatalf("pooled dispatched %d events, reference %d", len(pooled), len(want))
	}
	for i := range pooled {
		if pooled[i] != want[i] {
			t.Fatalf("dispatch %d: pooled %+v, reference %+v", i, pooled[i], want[i])
		}
	}
}

// TestCancelChurnCompactsQueue drives the controller pattern: handlers
// that cancel running jobs' end events and reschedule them, many times
// per dispatch. The queue must stay O(pending) — canceled events are
// compacted away instead of waiting for their time — and the dispatch
// sequence must equal a naive reference that keeps only live events and
// always fires the least (T, Kind, seq) one.
func TestCancelChurnCompactsQueue(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	e := NewEngine()
	type ref struct {
		t   Time
		seq int
	}
	live := map[int]ref{} // payload id -> reference key
	handles := map[int]Handle{}
	seq := 0
	schedule := func(id int, at Time) {
		h, err := e.Schedule(at, EvEnd, id)
		if err != nil {
			t.Fatal(err)
		}
		handles[id], live[id] = h, ref{at, seq}
		seq++
	}
	for id := 0; id < 200; id++ {
		schedule(id, Time(1+r.Intn(1000)))
	}
	next := 200
	dispatched := 0
	e.Run(func(ev Event) {
		id := ev.Payload.(int)
		want, ok := live[id]
		if !ok {
			t.Fatalf("dispatched event %d, which is not live", id)
		}
		for oid, o := range live {
			if o.t < want.t || (o.t == want.t && o.seq < want.seq) {
				t.Fatalf("dispatched %d at %v while %d at %v (seq %d) was due first", id, want.t, oid, o.t, o.seq)
			}
		}
		delete(live, id)
		delete(handles, id)
		dispatched++
		// Re-gear: move many live events to new times.
		for oid, h := range handles {
			if r.Intn(3) == 0 {
				e.Cancel(h)
				schedule(oid, ev.T+Time(r.Intn(500)))
			}
		}
		if dispatched <= 600 {
			schedule(next, ev.T+Time(1+r.Intn(1000)))
			next++
		}
		if q := len(e.queue); q > 2*e.Len()+deadSlack+1 {
			t.Fatalf("queue holds %d events for %d live ones", q, e.Len())
		}
	})
	if len(live) != 0 || e.Len() != 0 || len(e.queue) != 0 {
		t.Fatalf("%d live, Len %d, queue %d after the run", len(live), e.Len(), len(e.queue))
	}
	if dispatched != 800 {
		t.Fatalf("dispatched %d events, want 800", dispatched)
	}
}
