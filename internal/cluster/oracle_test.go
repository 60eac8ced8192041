package cluster

import "fmt"

// This file keeps the cluster as it was before the free-run ledger: a
// per-processor ownership bitmap scanned by the contiguous and next-fit
// selectors, with a min-heap free list for First Fit. It is the oracle
// the differential test and FuzzClusterMatchesBitmap hold the production
// Cluster to, and it is deliberately left as it shipped: slow, per
// processor, and obviously right. Only the type and constructor names
// differ from the original, so both can live in one package.

// intHeap is a min-heap of processor IDs backing the First Fit free list.
// It is hand-rolled rather than built on container/heap: the interface
// indirection and per-int boxing of the generic heap dominated the
// allocation profile of million-job replays (two boxed ints per processor
// per job). Pop order is identical — a min-heap over distinct ints always
// yields them ascending.
type intHeap []int

func (h *intHeap) push(v int) {
	*h = append(*h, v)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *intHeap) pop() int {
	s := *h
	n := len(s) - 1
	v := s[0]
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && s[r] < s[l] {
			min = r
		}
		if s[i] <= s[min] {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return v
}

// bitmapCluster mirrors Cluster's state and accounting.
type bitmapCluster struct {
	total int
	sel   Selection

	// First Fit uses a min-heap free list (O(log n) per processor); the
	// other policies scan the bitmap. freeMap is maintained for every
	// policy as the ownership ledger: it is what detects double releases
	// before they corrupt nfree/busy or duplicate IDs in the free heap.
	free    intHeap
	freeMap []bool
	nfree   int
	cursor  int // next-fit scan position

	// scanScratch stages the runs of a next-fit circular scan so the
	// final run list can be emitted in ascending order without allocating.
	scanScratch []Run

	busy         int
	lastChange   float64
	busyIntegral float64 // Σ busy · dt, CPU-seconds
}

// newBitmapCluster returns a cluster using the given selection policy.
func newBitmapCluster(total int, sel Selection) (*bitmapCluster, error) {
	if total < 1 {
		return nil, fmt.Errorf("invalid size %d", total)
	}
	c := &bitmapCluster{total: total, sel: sel, nfree: total}
	switch sel {
	case FirstFit:
		// Ascending initialization is already a valid min-heap.
		c.free = make(intHeap, total)
		for i := range c.free {
			c.free[i] = i
		}
	case ContiguousBestFit, NextFit:
	default:
		return nil, fmt.Errorf("unknown selection policy %v", sel)
	}
	c.freeMap = make([]bool, total)
	for i := range c.freeMap {
		c.freeMap[i] = true
	}
	return c, nil
}

// AllocateInto is Allocate writing its result into a, reusing a.Runs'
// capacity. It is the zero-allocation path the scheduler uses with pooled
// run states; any previous contents of a are discarded.
func (c *bitmapCluster) AllocateInto(a *Alloc, n int, now float64) error {
	if n < 1 || n > c.nfree {
		a.Runs = a.Runs[:0]
		return fmt.Errorf("cluster: cannot allocate %d of %d free processors", n, c.nfree)
	}
	if now < c.lastChange {
		a.Runs = a.Runs[:0]
		return fmt.Errorf("cluster: time moved backwards (%v < %v)", now, c.lastChange)
	}
	c.advance(now)
	runs := a.Runs[:0]
	switch c.sel {
	case FirstFit:
		// Min-heap pops yield IDs ascending, so runs build canonically.
		for i := 0; i < n; i++ {
			id := c.free.pop()
			c.freeMap[id] = false
			runs = appendRun(runs, id)
		}
	case ContiguousBestFit:
		runs = c.selectContiguous(runs, n)
	case NextFit:
		runs = c.selectNextFit(runs, n)
	}
	a.Runs = runs
	got := a.Count()
	if got != n {
		// Selection invariant broken: undo the marks and leave the
		// cluster untouched.
		for _, r := range runs {
			for id := r.Lo; id <= r.Hi; id++ {
				c.freeMap[id] = true
				if c.sel == FirstFit {
					c.free.push(id)
				}
			}
		}
		a.Runs = a.Runs[:0]
		return fmt.Errorf("cluster: selection %v produced %d of %d processors", c.sel, got, n)
	}
	c.nfree -= n
	c.busy += n
	return nil
}

// Release returns an allocation's processors to the free pool at time now.
// Every selection policy tracks per-processor ownership, so releasing a
// processor that is already free — including overlapping runs within the
// same allocation — is rejected without mutating the cluster state.
func (c *bitmapCluster) Release(a Alloc, now float64) error {
	if now < c.lastChange {
		return fmt.Errorf("cluster: time moved backwards (%v < %v)", now, c.lastChange)
	}
	n := a.Count()
	if c.busy < n {
		return fmt.Errorf("cluster: releasing %d processors with only %d busy", n, c.busy)
	}
	// Check-and-mark in one pass so an overlap inside a.Runs is caught;
	// roll the marks back on error to leave the ledger untouched.
	for ri, r := range a.Runs {
		if r.Lo < 0 || r.Hi >= c.total || r.Lo > r.Hi {
			c.rollbackRelease(a.Runs[:ri], r, r.Lo-1)
			return fmt.Errorf("cluster: releasing foreign processor run [%d,%d]", r.Lo, r.Hi)
		}
		for id := r.Lo; id <= r.Hi; id++ {
			if c.freeMap[id] {
				c.rollbackRelease(a.Runs[:ri], r, id-1)
				return fmt.Errorf("cluster: double release of processor %d", id)
			}
			c.freeMap[id] = true
		}
	}
	c.advance(now)
	if c.sel == FirstFit {
		for _, r := range a.Runs {
			for id := r.Lo; id <= r.Hi; id++ {
				c.free.push(id)
			}
		}
	}
	c.nfree += n
	c.busy -= n
	return nil
}

// rollbackRelease un-marks the fully processed runs plus the partial run
// cur up to and including lastDone (exclusive marks are restored).
func (c *bitmapCluster) rollbackRelease(done []Run, cur Run, lastDone int) {
	for _, r := range done {
		for id := r.Lo; id <= r.Hi; id++ {
			c.freeMap[id] = false
		}
	}
	for id := cur.Lo; id <= lastDone; id++ {
		c.freeMap[id] = false
	}
}

// advance accrues the busy integral up to now.
func (c *bitmapCluster) advance(now float64) {
	c.busyIntegral += float64(c.busy) * (now - c.lastChange)
	c.lastChange = now
}

// BusyCPUSeconds returns the integral of busy processors over time through
// now. now must not precede the last state change.
func (c *bitmapCluster) BusyCPUSeconds(now float64) float64 {
	if now < c.lastChange {
		now = c.lastChange
	}
	return c.busyIntegral + float64(c.busy)*(now-c.lastChange)
}

// takeRun marks [lo, hi] allocated and appends it to the run list,
// merging with an adjacent predecessor.
func (c *bitmapCluster) takeRun(runs []Run, lo, hi int) []Run {
	for id := lo; id <= hi; id++ {
		c.freeMap[id] = false
	}
	return appendRunInterval(runs, lo, hi)
}

// selectContiguous picks n processors from the free bitmap preferring the
// tightest contiguous fit.
func (c *bitmapCluster) selectContiguous(dst []Run, n int) []Run {
	bestStart, bestLen := -1, int(^uint(0)>>1)
	runStart := -1
	for i := 0; i <= c.total; i++ {
		free := i < c.total && c.freeMap[i]
		if free && runStart < 0 {
			runStart = i
		}
		if !free && runStart >= 0 {
			runLen := i - runStart
			if runLen >= n && runLen < bestLen {
				bestStart, bestLen = runStart, runLen
			}
			runStart = -1
		}
	}
	if bestStart >= 0 {
		return c.takeRun(dst, bestStart, bestStart+n-1)
	}
	// No single run fits: gather lowest free IDs (First Fit fallback).
	return c.selectLowest(dst, n)
}

// selectNextFit scans circularly from the cursor left by the previous
// allocation. Scan order is high segment [cursor, total) then the wrapped
// low segment [0, cursor); the wrapped runs must precede the high-segment
// runs in the ascending result, so the scan stages runs in a reused
// scratch list and stitches them in order, merging across the cursor
// boundary when the two segments touch.
func (c *bitmapCluster) selectNextFit(dst []Run, n int) []Run {
	scan := c.scanScratch[:0]
	count := 0
	last := -1
	collect := func(from, to int) {
		for i := from; i < to && count < n; i++ {
			if c.freeMap[i] {
				c.freeMap[i] = false
				count++
				last = i
				scan = appendRun(scan, i)
			}
		}
	}
	collect(c.cursor, c.total)
	k := len(scan) // runs collected from the high segment
	collect(0, c.cursor)
	c.scanScratch = scan
	if count == 0 {
		return dst
	}
	c.cursor = (last + 1) % c.total
	low, high := scan[k:], scan[:k]
	dst = append(dst, low...)
	for _, r := range high {
		dst = appendRunInterval(dst, r.Lo, r.Hi)
	}
	return dst
}

// selectLowest gathers the n lowest free IDs from the bitmap.
func (c *bitmapCluster) selectLowest(dst []Run, n int) []Run {
	count := 0
	runStart := -1
	for i := 0; i < c.total && count < n; i++ {
		if c.freeMap[i] {
			if runStart < 0 {
				runStart = i
			}
			count++
			if count == n {
				dst = c.takeRun(dst, runStart, i)
				runStart = -1
			}
			continue
		}
		if runStart >= 0 {
			dst = c.takeRun(dst, runStart, i-1)
			runStart = -1
		}
	}
	if runStart >= 0 {
		// Scan hit the machine end mid-run; close it there. Allocate
		// guards n <= nfree, so count == n here.
		dst = c.takeRun(dst, runStart, c.total-1)
	}
	return dst
}
