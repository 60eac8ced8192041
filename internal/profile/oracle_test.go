package profile

import (
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
		o.base = push(push(o.base, delta{e.Start, e.CPUs}), delta{e.End, -e.CPUs})
	}
}

func (o *flatTiers) vacate(cpus int, start, end float64) {
	o.base = push(push(o.base, delta{start, -cpus}), delta{end, cpus})
}

func (o *flatTiers) addReservation(e Entry) {
	o.resvLog = append(o.resvLog, e)
	if e.End > e.Start && e.CPUs > 0 {
		o.resv = push(push(o.resv, delta{e.Start, e.CPUs}), delta{e.End, -e.CPUs})
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
	if cpus > o.total {
		return math.Inf(1)
	}
	return sweepFrom(o.merged(), 0, o.total-cpus, dur, from)
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
func sweepFrom(ds []delta, u0, limit int, dur, from float64) float64 {
	i, used := 0, u0
	for ; i < len(ds) && ds[i].t <= from; i++ {
		used += ds[i].d
	}
	return linearSweep(ds, i, used, limit, dur, from)
}

// linearSweep is the plain merge sweep over time-sorted usage changes:
// walking the segments from `from`, a segment above the limit moves the
// candidate to its end, and the candidate wins once a feasible stretch
// reaches dur. used is the usage at from, ds[i:] the changes after it.
// The chunk-skipping sweep must agree with it exactly.
func linearSweep(ds []delta, i, used, limit int, dur, from float64) float64 {
	cand := from
	for i < len(ds) {
		t := ds[i].t
		// The segment ending at t has constant usage `used`.
		if used > limit {
			cand = t
		} else if t-cand >= dur {
			return cand
		}
		for ; i < len(ds) && ds[i].t == t; i++ {
			used += ds[i].d
		}
	}
	// Past the last change the machine is empty, so the candidate holds.
	return cand
}

// linearEarliest answers p.EarliestStart by materializing both chunked
// tiers into one sorted slice and running the linear sweep over it.
func linearEarliest(p *Profile, cpus int, dur, from float64) float64 {
	if cpus > p.Total {
		return math.Inf(1)
	}
	p.prepare()
	var ds []delta
	p.dex.each(func(d delta) bool { ds = append(ds, d); return true })
	p.ridx.each(func(d delta) bool { ds = append(ds, d); return true })
	slices.SortStableFunc(ds, deltaCmp)
	return sweepFrom(ds, p.pendBase, p.Total-cpus, dur, from)
}

// each calls fn on every skyline delta in time order until fn returns
// false.
func (d *skyDex) each(fn func(delta) bool) {
	for i := range d.chunks {
		for _, dd := range d.chunks[i].ds {
			if !fn(dd) {
				return
			}
		}
	}
}

// each calls fn on every reservation delta in time order until fn
// returns false.
func (ix *resvIndex) each(fn func(delta) bool) {
	for _, ch := range ix.chunks {
		for _, d := range ch {
			if !fn(d) {
				return
			}
		}
	}
}
