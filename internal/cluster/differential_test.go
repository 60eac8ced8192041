package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// diffHarness drives the production Cluster and the bitmap oracle
// (oracle_test.go) through one stream of operations and requires them to
// agree on every call: the same accept/reject outcome, the same
// Alloc.Runs, the same free processors, counts, busy integral and
// next-fit cursor.
type diffHarness struct {
	tb     testing.TB
	c      *Cluster
	o      *bitmapCluster
	now    float64
	live   []Alloc // allocations held by both sides
	dead   []Alloc // copies of released allocations, for double releases
	spare  [][]Run // recycled run slices, so AllocateInto reuse is exercised
	step   int
	source string
}

func newDiffHarness(tb testing.TB, total int, sel Selection, source string) *diffHarness {
	tb.Helper()
	c, err := NewWithSelection(total, sel)
	if err != nil {
		tb.Fatal(err)
	}
	o, err := newBitmapCluster(total, sel)
	if err != nil {
		tb.Fatal(err)
	}
	return &diffHarness{tb: tb, c: c, o: o, source: source}
}

func (h *diffHarness) fail(format string, args ...any) {
	h.tb.Helper()
	h.tb.Fatalf("%s %v total=%d step %d: %s", h.source, h.c.sel, h.c.total, h.step, fmt.Sprintf(format, args...))
}

// run interprets ops as a stream of (opcode, argument) byte pairs.
func (h *diffHarness) run(ops []byte) {
	for i := 0; i+1 < len(ops); i += 2 {
		h.step++
		h.apply(ops[i], ops[i+1])
		h.check()
	}
	// Drain: every live allocation must go back cleanly.
	for len(h.live) > 0 {
		h.step++
		if !h.release(len(h.live)-1, h.now) {
			h.fail("draining release of %v rejected", h.live[len(h.live)-1].Runs)
		}
		h.check()
	}
	if h.c.FreeCount() != h.c.total {
		h.fail("drained cluster has %d of %d free", h.c.FreeCount(), h.c.total)
	}
}

func (h *diffHarness) apply(op, arg byte) {
	when := h.now
	if op&0x80 != 0 {
		when = h.now - 1 - float64(arg%3) // time running backwards
	}
	total := h.c.total
	switch op & 0x7f % 10 {
	case 0, 1, 2: // small jobs: the fragmenting mix
		h.allocate(1+int(arg)%min(8, total), when)
	case 3: // any size, possibly more than is free
		h.allocate(1+int(arg)%total, when)
	case 4: // the edges: everything free, the whole machine, one too many, zero
		switch arg % 4 {
		case 0:
			h.allocate(h.c.FreeCount(), when)
		case 1:
			h.allocate(total, when)
		case 2:
			h.allocate(h.c.FreeCount()+1, when)
		case 3:
			h.allocate(0, when)
		}
	case 5, 6:
		if len(h.live) > 0 {
			h.release(int(arg)%len(h.live), when)
		}
	case 7: // double release of an allocation already given back
		if len(h.dead) > 0 {
			h.foreign(h.dead[int(arg)%len(h.dead)].Runs, when)
		}
	case 8: // a run list the cluster never handed out
		h.foreign(foreignRuns(arg, total), when)
	case 9:
		if arg%8 == 0 { // release everything
			for len(h.live) > 0 && h.release(len(h.live)-1, when) {
			}
		} else {
			h.now += float64(arg % 4)
		}
	}
}

// foreignRuns builds a small run list from one byte: in range or not,
// ascending or descending, overlapping or not.
func foreignRuns(arg byte, total int) []Run {
	lo := int(arg>>2) % (total + 2)
	switch arg % 4 {
	case 0:
		return []Run{{Lo: lo, Hi: lo + int(arg%5)}}
	case 1:
		return []Run{{Lo: lo - 1, Hi: lo}}
	case 2:
		return []Run{{Lo: lo + 2, Hi: lo + 3}, {Lo: lo, Hi: lo}}
	default:
		return []Run{{Lo: lo, Hi: lo + 1}, {Lo: lo + 1, Hi: lo + 2}}
	}
}

func (h *diffHarness) allocate(n int, when float64) {
	h.tb.Helper()
	var a Alloc
	if k := len(h.spare); k > 0 {
		// Stale contents must be discarded, not appended to.
		a.Runs = append(h.spare[k-1][:0], Run{Lo: -7, Hi: -7})
		h.spare = h.spare[:k-1]
	}
	var b Alloc
	errC := h.c.AllocateInto(&a, n, when)
	errO := h.o.AllocateInto(&b, n, when)
	if (errC == nil) != (errO == nil) {
		h.fail("Allocate(%d, %v): cluster err %v, oracle err %v", n, when, errC, errO)
	}
	if !slices.Equal(a.Runs, b.Runs) {
		h.fail("Allocate(%d, %v): cluster runs %v, oracle runs %v", n, when, a.Runs, b.Runs)
	}
	if errC == nil {
		h.now = when
		h.live = append(h.live, a)
	}
}

// release gives back live allocation i and reports whether both sides
// accepted it.
func (h *diffHarness) release(i int, when float64) bool {
	h.tb.Helper()
	a := h.live[i]
	errC := h.c.Release(a, when)
	errO := h.o.Release(a, when)
	if (errC == nil) != (errO == nil) {
		h.fail("Release(%v, %v): cluster err %v, oracle err %v", a.Runs, when, errC, errO)
	}
	if errC != nil {
		return false
	}
	h.now = when
	h.dead = append(h.dead, Alloc{Runs: slices.Clone(a.Runs)})
	h.spare = append(h.spare, a.Runs)
	h.live = slices.Delete(h.live, i, i+1)
	return true
}

// foreign releases a run list that is not a live allocation: a stale copy
// of one already released, or a made-up list. The oracle accepts a
// disjoint list out of order, which the cluster's contract rejects, so
// such lists are checked against that contract alone.
func (h *diffHarness) foreign(runs []Run, when float64) {
	h.tb.Helper()
	a := Alloc{Runs: runs}
	if !strictlyAscending(runs) {
		before := h.snapshot()
		if err := h.c.Release(a, when); err == nil {
			h.fail("Release(%v) out of order accepted", runs)
		}
		if after := h.snapshot(); !before.equal(after) {
			h.fail("rejected Release(%v) changed the cluster: %+v -> %+v", runs, before, after)
		}
		return
	}
	before := h.snapshot()
	errC := h.c.Release(a, when)
	errO := h.o.Release(a, when)
	if (errC == nil) != (errO == nil) {
		h.fail("Release(%v, %v): cluster err %v, oracle err %v", runs, when, errC, errO)
	}
	if errC != nil {
		if after := h.snapshot(); !before.equal(after) {
			h.fail("rejected Release(%v) changed the cluster: %+v -> %+v", runs, before, after)
		}
		return
	}
	// An accepted foreign release freed processors some live allocation
	// still holds: both sides now disagree with the harness's bookkeeping
	// in the same way, so forget the owners rather than release twice.
	h.now = when
	h.live = slices.DeleteFunc(h.live, func(l Alloc) bool { return overlaps(l.Runs, runs) })
	h.resync()
}

// resync rebuilds the live list from the oracle's bitmap after an accepted
// foreign release left allocations partly freed: each busy run becomes one
// live allocation, so the drain still returns every processor.
func (h *diffHarness) resync() {
	var busy []Run
	for id, free := range h.o.freeMap {
		if !free && !ownedBy(h.live, id) {
			busy = appendRun(busy, id)
		}
	}
	for _, r := range busy {
		h.live = append(h.live, Alloc{Runs: []Run{r}})
	}
}

func ownedBy(live []Alloc, id int) bool {
	for _, a := range live {
		for _, r := range a.Runs {
			if r.Lo <= id && id <= r.Hi {
				return true
			}
		}
	}
	return false
}

func overlaps(a, b []Run) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Lo <= y.Hi && y.Lo <= x.Hi {
				return true
			}
		}
	}
	return false
}

func strictlyAscending(runs []Run) bool {
	for i := 1; i < len(runs); i++ {
		if runs[i].Lo <= runs[i-1].Hi {
			return false
		}
	}
	return true
}

// clusterState is everything a rejected call must leave untouched.
type clusterState struct {
	free                     []Run
	nfree, busy, cursor      int
	lastChange, busyIntegral float64
}

func (h *diffHarness) snapshot() clusterState {
	c := h.c
	return clusterState{slices.Clone(c.free), c.nfree, c.busy, c.cursor, c.lastChange, c.busyIntegral}
}

func (s clusterState) equal(o clusterState) bool {
	return slices.Equal(s.free, o.free) && s.nfree == o.nfree && s.busy == o.busy &&
		s.cursor == o.cursor && s.lastChange == o.lastChange && s.busyIntegral == o.busyIntegral
}

// check compares the full state of both sides and the free list's own
// invariants: ascending, disjoint, never adjacent, inside the machine,
// and exactly the processors the oracle's bitmap marks free.
func (h *diffHarness) check() {
	h.tb.Helper()
	c, o := h.c, h.o
	if c.FreeCount() != o.nfree || c.Busy() != o.busy {
		h.fail("free/busy %d/%d, oracle %d/%d", c.FreeCount(), c.Busy(), o.nfree, o.busy)
	}
	if c.cursor != o.cursor {
		h.fail("next-fit cursor %d, oracle %d", c.cursor, o.cursor)
	}
	if got, want := c.BusyCPUSeconds(h.now+1), o.BusyCPUSeconds(h.now+1); got != want {
		h.fail("busy integral %v, oracle %v", got, want)
	}
	if c.lastChange != o.lastChange {
		h.fail("last change %v, oracle %v", c.lastChange, o.lastChange)
	}
	n, id := 0, 0
	for i, r := range c.free {
		if r.Lo > r.Hi || r.Lo < 0 || r.Hi >= c.total || (i > 0 && r.Lo <= c.free[i-1].Hi+1) {
			h.fail("free list not canonical: %v", c.free)
		}
		for ; id < r.Lo; id++ {
			if o.freeMap[id] {
				h.fail("processor %d free in the oracle, busy in the free list %v", id, c.free)
			}
		}
		for ; id <= r.Hi; id++ {
			if !o.freeMap[id] {
				h.fail("processor %d busy in the oracle, free in the free list %v", id, c.free)
			}
		}
		n += r.Len()
	}
	for ; id < c.total; id++ {
		if o.freeMap[id] {
			h.fail("processor %d free in the oracle, busy in the free list %v", id, c.free)
		}
	}
	if n != c.nfree {
		h.fail("free list holds %d processors, FreeCount %d", n, c.nfree)
	}
}

// TestClusterMatchesBitmap replays random operation streams under every
// selection policy and machine size class, from a single processor to a
// machine where hundreds of small jobs fragment the free list.
func TestClusterMatchesBitmap(t *testing.T) {
	for _, sel := range []Selection{FirstFit, ContiguousBestFit, NextFit} {
		for _, total := range []int{1, 2, 5, 16, 64, 257} {
			for seed := int64(0); seed < 8; seed++ {
				r := rand.New(rand.NewSource(seed*1000 + int64(total)))
				ops := make([]byte, 1200)
				r.Read(ops)
				newDiffHarness(t, total, sel, fmt.Sprintf("seed %d", seed)).run(ops)
			}
		}
	}
}

// TestClusterMatchesBitmapFragmenting holds a machine near full with a
// churn of small jobs, the regime where the free list is longest and
// First Fit takes span many runs.
func TestClusterMatchesBitmapFragmenting(t *testing.T) {
	for _, sel := range []Selection{FirstFit, ContiguousBestFit, NextFit} {
		r := rand.New(rand.NewSource(5))
		h := newDiffHarness(t, 512, sel, "fragmenting")
		peak := 0
		for step := 0; step < 6000; step++ {
			h.step++
			switch {
			case h.c.FreeCount() > 64 || len(h.live) == 0:
				h.allocate(1+r.Intn(6), h.now)
			case r.Intn(10) == 0:
				h.allocate(1+r.Intn(h.c.FreeCount()+4), h.now)
			default:
				h.now += float64(r.Intn(3))
				h.release(r.Intn(len(h.live)), h.now)
			}
			h.check()
			peak = max(peak, len(h.c.free))
		}
		t.Logf("%v: peak free list %d runs", sel, peak)
		if peak < 20 {
			t.Errorf("%v: fragmenting stream peaked at only %d free runs", sel, peak)
		}
		h.run(nil)
	}
}

// FuzzClusterMatchesBitmap feeds arbitrary operation streams to the
// differential harness: byte 0 sizes the machine, byte 1 picks the
// policy, the rest are (opcode, argument) pairs.
func FuzzClusterMatchesBitmap(f *testing.F) {
	f.Add([]byte{15, 0, 0, 3, 1, 2, 5, 0, 2, 1, 5, 1, 0, 1, 7, 0})
	f.Add([]byte{7, 2, 3, 4, 3, 5, 9, 1, 5, 0, 2, 2, 3, 1, 0x84, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		total := 1 + int(data[0])%200
		sel := Selection(int(data[1]) % 3)
		newDiffHarness(t, total, sel, "fuzz").run(data[2:])
	})
}
