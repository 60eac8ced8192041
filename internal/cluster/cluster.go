// Package cluster models the machine: a pool of identical DVFS-enabled
// processors. It implements the resource selection policies of the
// paper's simulator architecture (§3.1) — First Fit, as used in the
// paper's experiments, plus contiguous best-fit and next-fit — and
// integrates busy CPU-time over the run, which the energy accounting
// needs to charge idle power to unused processors. Occupancy is kept as
// the list of maximal free runs, so allocation and release cost is per
// run of processors, not per processor.
package cluster

import (
	"fmt"
	"slices"
)

// Run is a maximal contiguous interval of processor IDs: every processor
// in [Lo, Hi] (inclusive) belongs to the allocation.
type Run struct {
	Lo, Hi int
}

// Len returns the number of processors in the run.
func (r Run) Len() int { return r.Hi - r.Lo + 1 }

// Alloc is a concrete assignment of processors to a job, stored as
// run-length intervals. Runs are ascending by Lo, pairwise disjoint, and
// maximal (adjacent runs are always merged), so len(Runs) is exactly the
// placement-contiguity count the metrics layer reports. First Fit packs
// jobs into very few runs, which is why interval storage replaces the
// seed-era explicit []int: a 1024-processor job is one 16-byte Run
// instead of an 8 KiB ID slice held alive for the job's whole lifetime.
type Alloc struct {
	Runs []Run
}

// Count returns the number of processors in the allocation.
func (a Alloc) Count() int {
	n := 0
	for _, r := range a.Runs {
		n += r.Len()
	}
	return n
}

// AllocOf builds an allocation from explicit processor IDs, merging
// consecutive ascending IDs into runs. IDs are taken in the given order,
// so a duplicated or descending ID produces an extra run out of order —
// Release rejects such allocations, which is exactly what the
// double-release tests construct. Test helper; production
// allocations come from Cluster.Allocate.
//
//lint:deadexport test accessor shared by the tests of cluster, metrics and nodepower
func AllocOf(ids ...int) Alloc {
	var a Alloc
	for _, id := range ids {
		a.Runs = appendRun(a.Runs, id)
	}
	return a
}

// appendRunInterval extends a run list with [lo, hi], merging into the
// last run when lo extends it by one. Intervals must arrive ascending
// and non-overlapping for the result to be canonical.
func appendRunInterval(runs []Run, lo, hi int) []Run {
	if k := len(runs); k > 0 && runs[k-1].Hi+1 == lo {
		runs[k-1].Hi = hi
		return runs
	}
	return append(runs, Run{Lo: lo, Hi: hi})
}

// appendRun is appendRunInterval for a single processor ID.
func appendRun(runs []Run, id int) []Run { return appendRunInterval(runs, id, id) }

// Cluster tracks processor occupancy over simulated time. All mutating
// calls carry the current simulation time so the busy integral stays
// exact. The zero value is not usable; construct with NewWithSelection.
type Cluster struct {
	total int
	sel   Selection

	// free is the whole occupancy state: the maximal runs of free
	// processors, ascending, disjoint and never adjacent. Every selection
	// policy takes from it and Release merges back into it, so work is
	// per run, never per processor, and the same list is the ownership
	// ledger that rejects a double release before it corrupts the counts.
	free   []Run
	nfree  int
	cursor int // next-fit scan position

	// scanScratch stages the high segment of a wrapping next-fit take so
	// the result can be emitted in ascending order without allocating.
	scanScratch []Run

	busy         int
	lastChange   float64
	busyIntegral float64 // Σ busy · dt, CPU-seconds
}

// NewWithSelection returns a cluster of total processors using the given
// selection policy.
func NewWithSelection(total int, sel Selection) (*Cluster, error) {
	if total < 1 {
		return nil, fmt.Errorf("invalid size %d", total)
	}
	switch sel {
	case FirstFit, ContiguousBestFit, NextFit:
	default:
		return nil, fmt.Errorf("unknown selection policy %v", sel)
	}
	return &Cluster{total: total, sel: sel, nfree: total, free: []Run{{Lo: 0, Hi: total - 1}}}, nil
}

// Total returns the number of processors in the machine.
func (c *Cluster) Total() int { return c.total }

// Selection returns the active resource selection policy.
func (c *Cluster) Selection() Selection { return c.sel }

// FreeCount returns the number of currently unallocated processors.
func (c *Cluster) FreeCount() int { return c.nfree }

// Busy returns the number of currently allocated processors.
func (c *Cluster) Busy() int { return c.busy }

// Allocate reserves n free processors at time now, chosen by the
// selection policy. It fails if fewer than n processors are free or time
// runs backwards.
func (c *Cluster) Allocate(n int, now float64) (Alloc, error) {
	var a Alloc
	if err := c.AllocateInto(&a, n, now); err != nil {
		return Alloc{}, err
	}
	return a, nil
}

// AllocateInto is Allocate writing its result into a, reusing a.Runs'
// capacity. It is the zero-allocation path the scheduler uses with pooled
// run states; any previous contents of a are discarded.
func (c *Cluster) AllocateInto(a *Alloc, n int, now float64) error {
	a.Runs = a.Runs[:0]
	if n < 1 || n > c.nfree {
		return fmt.Errorf("cluster: cannot allocate %d of %d free processors", n, c.nfree)
	}
	if now < c.lastChange {
		return fmt.Errorf("cluster: time moved backwards (%v < %v)", now, c.lastChange)
	}
	c.advance(now)
	switch c.sel {
	case FirstFit:
		a.Runs = c.selectFirstFit(a.Runs, n)
	case ContiguousBestFit:
		a.Runs = c.selectContiguous(a.Runs, n)
	case NextFit:
		a.Runs = c.selectNextFit(a.Runs, n)
	}
	c.nfree -= n
	c.busy += n
	return nil
}

// Release returns an allocation's processors to the free pool at time now.
// The runs must be strictly ascending, inside the machine and busy: a run
// list out of order, a foreign run, or one overlapping a free processor
// (a double release) is rejected without mutating the cluster state.
func (c *Cluster) Release(a Alloc, now float64) error {
	if now < c.lastChange {
		return fmt.Errorf("cluster: time moved backwards (%v < %v)", now, c.lastChange)
	}
	// Merge as we validate: the runs ascend, so each search resumes where
	// the previous one stopped. A bad run takes the merged ones back.
	n, prev, i := 0, -1, 0
	for k, r := range a.Runs {
		var err error
		if r.Lo < 0 || r.Hi >= c.total || r.Lo > r.Hi {
			err = fmt.Errorf("cluster: releasing foreign processor run [%d,%d]", r.Lo, r.Hi)
		} else if r.Lo <= prev {
			err = fmt.Errorf("cluster: released runs not strictly ascending at [%d,%d]", r.Lo, r.Hi)
		} else if i = c.search(i, r.Lo); i < len(c.free) && c.free[i].Lo <= r.Hi {
			err = fmt.Errorf("cluster: double release of processor %d", max(r.Lo, c.free[i].Lo))
		}
		if err != nil {
			for _, m := range a.Runs[:k] {
				j := c.search(0, m.Lo)
				c.take(nil, j, j+1, m.Lo, m.Hi)
			}
			return err
		}
		i = c.merge(i, r)
		n += r.Len()
		prev = r.Hi
	}
	c.advance(now)
	c.nfree += n
	c.busy -= n
	return nil
}

// search returns the index of the first free run at or after from with
// Hi >= id, or len(c.free) if there is none. It gallops from from, so a
// caller walking ascending IDs pays for the distance it moves, not for
// the length of the list.
func (c *Cluster) search(from, id int) int {
	lo, hi, step := from, from, 1
	for hi < len(c.free) && c.free[hi].Hi < id {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	hi = min(hi, len(c.free))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.free[m].Hi < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// merge returns the busy run r to the free list, joining it with the free
// runs it touches, and returns the index of the free run now holding it.
// i must be search's answer for r.Lo, and r must not overlap a free run.
func (c *Cluster) merge(i int, r Run) int {
	left := i > 0 && c.free[i-1].Hi+1 == r.Lo
	right := i < len(c.free) && c.free[i].Lo == r.Hi+1
	switch {
	case left && right:
		c.free[i-1].Hi = c.free[i].Hi
		c.free = slices.Delete(c.free, i, i+1)
		return i - 1
	case left:
		c.free[i-1].Hi = r.Hi
		return i - 1
	case right:
		c.free[i].Lo = r.Lo
	default:
		c.free = slices.Insert(c.free, i, r)
	}
	return i
}

// advance accrues the busy integral up to now.
func (c *Cluster) advance(now float64) {
	c.busyIntegral += float64(c.busy) * (now - c.lastChange)
	c.lastChange = now
}

// BusyCPUSeconds returns the integral of busy processors over time through
// now. now must not precede the last state change.
func (c *Cluster) BusyCPUSeconds(now float64) float64 {
	if now < c.lastChange {
		now = c.lastChange
	}
	return c.busyIntegral + float64(c.busy)*(now-c.lastChange)
}

// IdleCPUSeconds returns total·window − busy integral for the window
// [start, now]. The busy integral is assumed to have started accruing at
// or after start.
func (c *Cluster) IdleCPUSeconds(start, now float64) float64 {
	window := now - start
	if window < 0 {
		window = 0
	}
	idle := float64(c.total)*window - c.BusyCPUSeconds(now)
	if idle < 0 {
		idle = 0
	}
	return idle
}
