package cluster

import (
	"fmt"
	"slices"
)

// The paper's simulator (Alvio, §3.1) separates the job scheduling policy
// from the resource selection policy, which "determines how job processes
// are mapped to the processors" — First Fit in the paper's experiments.
// Processor identity does not change scheduling times on a flat machine,
// but it decides placement contiguity (relevant for interconnect locality
// and for how well idle processors coalesce for power-down), so the
// selection layer is reproduced with the common alternatives.
//
// Every selector works on the cluster's list of maximal free runs: it
// picks an interval of processor IDs, emits the free runs inside it as
// the allocation, and cuts them from the list. None of them visits
// processors one by one.

// Selection identifies a resource selection policy.
type Selection int

const (
	// FirstFit takes the lowest-numbered free processors (the paper's
	// choice). This is the default; it takes whole free runs off the low
	// end of the machine.
	FirstFit Selection = iota
	// ContiguousBestFit prefers the smallest contiguous run of free
	// processors that fits the job (the lowest on ties), falling back to
	// First Fit when no single run fits.
	ContiguousBestFit
	// NextFit continues scanning from where the previous allocation
	// ended, spreading load across the machine.
	NextFit
)

// String names the selection policy.
func (s Selection) String() string {
	switch s {
	case FirstFit:
		return "firstfit"
	case ContiguousBestFit:
		return "contiguous"
	case NextFit:
		return "nextfit"
	}
	return fmt.Sprintf("selection(%d)", int(s))
}

// ParseSelection resolves a policy name.
func ParseSelection(name string) (Selection, error) {
	switch name {
	case "firstfit", "ff", "":
		return FirstFit, nil
	case "contiguous", "bestfit", "cbf":
		return ContiguousBestFit, nil
	case "nextfit", "nf":
		return NextFit, nil
	}
	return 0, fmt.Errorf("cluster: unknown selection policy %q (firstfit, contiguous, nextfit)", name)
}

// selectFirstFit takes the n lowest free processors: whole runs off the
// low end of the free list, splitting the last one. It costs O(runs
// taken) plus one shift of the remaining list.
func (c *Cluster) selectFirstFit(dst []Run, n int) []Run {
	end, last, _ := c.span(0, 0, n)
	return c.take(dst, 0, end, 0, last)
}

// selectContiguous takes the low n processors of the shortest free run
// that holds n, the lowest such run on ties, and falls back to First Fit
// when no single run fits.
func (c *Cluster) selectContiguous(dst []Run, n int) []Run {
	best := -1
	for i, r := range c.free {
		if r.Len() >= n && (best < 0 || r.Len() < c.free[best].Len()) {
			best = i
		}
	}
	if best < 0 {
		return c.selectFirstFit(dst, n)
	}
	lo := c.free[best].Lo
	return c.take(dst, best, best+1, lo, lo+n-1)
}

// selectNextFit scans circularly from the cursor left by the previous
// allocation: the high segment [cursor, total) first, then the wrapped
// low segment [0, cursor). The wrapped runs must precede the high-segment
// runs in the ascending result, so a wrapping take stages the high runs
// in a reused scratch list and stitches them after the low ones, merging
// across the cursor when the two segments touch.
func (c *Cluster) selectNextFit(dst []Run, n int) []Run {
	i := c.search(0, c.cursor)
	end, last, short := c.span(i, c.cursor, n)
	if short == 0 {
		dst = c.take(dst, i, end, c.cursor, last)
		c.cursor = (last + 1) % c.total
		return dst
	}
	high := c.scanScratch[:0]
	if short < n {
		high = c.take(high, i, end, c.cursor, last)
	}
	c.scanScratch = high
	// The high segment held fewer than n, so the rest lies wholly below
	// the cursor and a First Fit take from the low end finds it.
	lowEnd, lowLast, _ := c.span(0, 0, short)
	dst = c.take(dst, 0, lowEnd, 0, lowLast)
	c.cursor = (lowLast + 1) % c.total
	for _, r := range high {
		dst = appendRunInterval(dst, r.Lo, r.Hi)
	}
	return dst
}

// span walks the free runs from index i, counting free processors at or
// above from, until n are found or the list ends. It returns one past the
// index of the last run reached, the last processor counted, and how many
// of the n it did not find: taking [from, last] from runs [i, end) yields
// n - short processors.
func (c *Cluster) span(i, from, n int) (end, last, short int) {
	for end = i; end < len(c.free); end++ {
		r := c.free[end]
		lo := max(r.Lo, from)
		if k := r.Hi - lo + 1; k < n {
			n -= k
			last = r.Hi
			continue
		}
		return end + 1, lo + n - 1, 0
	}
	return end, last, n
}

// take allocates every free processor in [lo, hi], which lies within the
// free runs [a, b): it appends them to dst as runs and cuts them from the
// free list, keeping whatever parts of runs a and b-1 fall outside the
// interval.
func (c *Cluster) take(dst []Run, a, b, lo, hi int) []Run {
	for _, r := range c.free[a:b] {
		dst = append(dst, Run{Lo: max(r.Lo, lo), Hi: min(r.Hi, hi)})
	}
	var keep [2]Run
	rest := keep[:0]
	if first := c.free[a]; first.Lo < lo {
		rest = append(rest, Run{Lo: first.Lo, Hi: lo - 1})
	}
	if final := c.free[b-1]; final.Hi > hi {
		rest = append(rest, Run{Lo: hi + 1, Hi: final.Hi})
	}
	c.free = slices.Replace(c.free, a, b, rest...)
	return dst
}
