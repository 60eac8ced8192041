package profile

import (
	"fmt"
	"math"
	"slices"
)

// flatTiers is the sorted-slice oracle for Profile: the base and the
// reservation usage changes each kept in one flat time-sorted slice,
// answered by linear scans and by the plain merge sweep. Reservations
// keep their journal, and a truncation replays its kept prefix.
type flatTiers struct {
	total   int
	base    []delta
	resv    []delta
	resvLog []Entry
}

// push inserts d after every change at or before its time.
func push(ds []delta, d delta) []delta {
	i := len(ds)
	for i > 0 && ds[i-1].t > d.t {
		i--
	}
	return slices.Insert(ds, i, d)
}

func (o *flatTiers) add(e Entry) {
	if e.End > e.Start && e.CPUs > 0 {
		o.base = push(push(o.base, delta{t: e.Start, d: e.CPUs}), delta{t: e.End, d: -e.CPUs})
	}
}

func (o *flatTiers) vacate(cpus int, start, end float64) {
	o.base = push(push(o.base, delta{t: start, d: -cpus}), delta{t: end, d: cpus})
}

func (o *flatTiers) addReservation(e Entry) {
	o.resvLog = append(o.resvLog, e)
	if e.End > e.Start && e.CPUs > 0 {
		o.resv = push(push(o.resv, delta{t: e.Start, d: e.CPUs}), delta{t: e.End, d: -e.CPUs})
	}
}

func (o *flatTiers) truncate(n int) {
	if n >= len(o.resvLog) {
		return
	}
	log := o.resvLog[:n]
	o.resv, o.resvLog = nil, nil
	for _, e := range log {
		o.addReservation(e)
	}
}

// merged returns both tiers as one time-sorted change list.
func (o *flatTiers) merged() []delta {
	ds := append(slices.Clone(o.base), o.resv...)
	slices.SortStableFunc(ds, deltaCmp)
	return ds
}

func (o *flatTiers) usedAt(t float64) int {
	used := 0
	for _, d := range o.merged() {
		if d.t <= t {
			used += d.d
		}
	}
	return used
}

func (o *flatTiers) earliestStart(cpus int, dur, from float64) float64 {
	st, _ := o.earliestBlocked(cpus, dur, from)
	return st
}

// earliestBlocked answers EarliestStartBlocked on the oracle: the start
// and the violated stretches the linear sweep crossed, each with its
// exact excess.
func (o *flatTiers) earliestBlocked(cpus int, dur, from float64) (float64, Blocking) {
	if cpus > o.total {
		return math.Inf(1), nil
	}
	var rec Blocking
	st := sweepFrom(o.merged(), 0, o.total-cpus, dur, from, &rec)
	return st, rec
}

// canPlace mirrors Profile.CanPlace's contract on the oracle.
func (o *flatTiers) canPlace(cpus int, start, dur float64) bool {
	if cpus > o.total {
		return false
	}
	if dur <= 0 {
		return o.usedAt(start)+cpus <= o.total
	}
	return o.earliestStart(cpus, dur, start) == start
}

// sweepFrom applies every change at or before from to base usage u0 and
// runs linearSweep over the rest.
func sweepFrom(ds []delta, u0, limit int, dur, from float64, rec *Blocking) float64 {
	i, used := 0, u0
	for ; i < len(ds) && ds[i].t <= from; i++ {
		used += ds[i].d
	}
	return linearSweep(ds, i, used, limit, dur, from, rec)
}

// linearSweep is the plain merge sweep over time-sorted usage changes:
// walking the segments from `from`, a segment above the limit moves the
// candidate to its end, and the candidate wins once a feasible stretch
// reaches dur. used is the usage at from, ds[i:] the changes after it.
// The chunk-skipping sweep must agree with it exactly. A non-nil rec
// receives each maximal run of segments above the limit that the sweep
// walks through before it returns — a violated stretch — with its exact
// excess, the minimum of used−limit over the run.
func linearSweep(ds []delta, i, used, limit int, dur, from float64, rec *Blocking) float64 {
	cand, segStart := from, from
	var viol *Stretch
	for i < len(ds) {
		t := ds[i].t
		// The segment [segStart, t) has constant usage `used`.
		if used > limit {
			if viol == nil {
				viol = &Stretch{From: segStart, Excess: used - limit}
			}
			viol.Excess = min(viol.Excess, used-limit)
			cand = t
		} else {
			if viol != nil {
				viol.To = segStart
				appendStretch(rec, viol)
				viol = nil
			}
			if t-cand >= dur {
				return cand
			}
		}
		for ; i < len(ds) && ds[i].t == t; i++ {
			used += ds[i].d
		}
		segStart = t
	}
	// Past the last change the machine is empty, so the candidate holds.
	if viol != nil {
		viol.To = segStart
		appendStretch(rec, viol)
	}
	return cand
}

func appendStretch(rec *Blocking, s *Stretch) {
	if rec != nil {
		*rec = append(*rec, *s)
	}
}

// checkBlocking holds a recorded blocking to the oracle's stretches: the
// same stretches with the same bounds, each recorded excess positive and
// no greater than the stretch's true minimum.
func checkBlocking(got, want Blocking) error {
	if len(got) != len(want) {
		return fmt.Errorf("recorded %d stretches %v, oracle %d %v", len(got), got, len(want), want)
	}
	for i, g := range got {
		w := want[i]
		if g.From != w.From || g.To != w.To {
			return fmt.Errorf("stretch %d spans [%v, %v), oracle [%v, %v)", i, g.From, g.To, w.From, w.To)
		}
		if g.Excess <= 0 || g.Excess > w.Excess {
			return fmt.Errorf("stretch %d [%v, %v) records excess %d, true minimum %d", i, g.From, g.To, g.Excess, w.Excess)
		}
	}
	return nil
}

// baseDeltas counts the distinct base change times after the horizon
// whose net is nonzero: the base skyline's live delta count, which
// Profile.BaseDeltas must report once a query has folded the horizon.
func (o *flatTiers) baseDeltas(horizon float64) int {
	n := 0
	for i := 0; i < len(o.base); {
		t, net := o.base[i].t, 0
		for ; i < len(o.base) && o.base[i].t == t; i++ {
			net += o.base[i].d
		}
		if t > horizon && net != 0 {
			n++
		}
	}
	return n
}

func deltaCmp(a, b delta) int {
	switch {
	case a.t < b.t:
		return -1
	case a.t > b.t:
		return 1
	}
	return 0
}

// linearEarliest answers p.EarliestStartBlocked by materializing the
// chunked skyline into one sorted slice and running the linear sweep
// over it.
func linearEarliest(p *Profile, cpus int, dur, from float64) (float64, Blocking) {
	if cpus > p.Total {
		return math.Inf(1), nil
	}
	p.prepare()
	var ds []delta
	for i := range p.dex.chunks {
		ds = append(ds, p.dex.chunks[i].ds...)
	}
	var rec Blocking
	st := sweepFrom(ds, p.folded, p.Total-cpus, dur, from, &rec)
	return st, rec
}

// blockedMatches runs EarliestStartBlocked on p and holds its start and
// recorded stretches to the given oracle answer.
func blockedMatches(p *Profile, cpus int, dur, from, want float64, wantRec Blocking) error {
	var rec Blocking
	if got := p.EarliestStartBlocked(cpus, dur, from, &rec); got != want {
		return fmt.Errorf("EarliestStartBlocked(%d, %v, %v) = %v, oracle %v", cpus, dur, from, got, want)
	}
	if err := checkBlocking(rec, wantRec); err != nil {
		return fmt.Errorf("EarliestStartBlocked(%d, %v, %v): %v", cpus, dur, from, err)
	}
	return nil
}

// checkSkyDexInvariants verifies the skyline index's structural
// contract: non-empty chunks below the split threshold, strictly
// increasing times within and across chunks (equal-time deltas coalesce
// on insert), no entry whose delta and base part are both zero, chunk
// sums and last keys consistent with the deltas, and on a fresh chunk the
// prefix extrema; the size and base counts match the entries. A recorded
// slot describes a positive window whose start sits on a delta and whose
// end position is the first delta at or after it.
func checkSkyDexInvariants(d *skyDex) error {
	n, bases := 0, 0
	lastT := float64(0)
	for ci := range d.chunks {
		c := &d.chunks[ci]
		if len(c.ds) == 0 {
			return fmt.Errorf("chunk %d empty", ci)
		}
		if len(c.ds) >= skyChunkMax {
			return fmt.Errorf("chunk %d holds %d entries, max %d", ci, len(c.ds), skyChunkMax)
		}
		run, mn, mx := 0, math.MaxInt, math.MinInt
		for k, dd := range c.ds {
			if (ci > 0 || k > 0) && dd.t <= lastT {
				return fmt.Errorf("chunk %d[%d]: key %v not above predecessor %v (uncoalesced?)", ci, k, dd.t, lastT)
			}
			lastT = dd.t
			if dd.d == 0 && dd.b == 0 {
				return fmt.Errorf("chunk %d[%d]: empty entry survived", ci, k)
			}
			if dd.b != 0 {
				bases++
			}
			run += dd.d
			mn, mx = min(mn, run), max(mx, run)
		}
		if last := c.ds[len(c.ds)-1].t; c.last != last {
			return fmt.Errorf("chunk %d: last key %v, cached %v", ci, last, c.last)
		}
		if run != c.sum {
			return fmt.Errorf("chunk %d: sum %d, recomputed %d", ci, c.sum, run)
		}
		if c.fresh && (c.minPre != mn || c.maxPre != mx) {
			return fmt.Errorf("chunk %d: extrema [%d,%d], recomputed [%d,%d]", ci, c.minPre, c.maxPre, mn, mx)
		}
		n += len(c.ds)
	}
	if n != d.size {
		return fmt.Errorf("size %d, counted %d", d.size, n)
	}
	if bases != d.bases {
		return fmt.Errorf("base count %d, counted %d", d.bases, bases)
	}
	return checkSkySlot(d)
}

// checkSkySlot verifies a recorded slot against the index it describes.
func checkSkySlot(d *skyDex) error {
	s := d.slot
	if !s.ok {
		return nil
	}
	if !(s.t1 > s.t0) {
		return fmt.Errorf("slot [%v, %v) recorded for a window of no length", s.t0, s.t1)
	}
	if s.ci0 < 0 || s.ci0 >= len(d.chunks) || s.k0 < 0 || s.k0 >= len(d.chunks[s.ci0].ds) ||
		d.chunks[s.ci0].ds[s.k0].t != s.t0 {
		return fmt.Errorf("slot start (%d, %d) does not hold a delta at %v", s.ci0, s.k0, s.t0)
	}
	ci, k := 0, 0
	for ci < len(d.chunks) && d.chunks[ci].last < s.t1 {
		ci++
	}
	if ci < len(d.chunks) {
		for d.chunks[ci].ds[k].t < s.t1 {
			k++
		}
	}
	if ci != s.ci1 || k != s.k1 {
		return fmt.Errorf("slot end at (%d, %d), first delta at or after %v at (%d, %d)", s.ci1, s.k1, s.t1, ci, k)
	}
	return nil
}
