// Package profile implements an availability profile: a step function of
// processor usage over future time built from running and planned jobs.
// The conservative and flexible backfilling variants plan every protected
// job against it, and tests use it as an independent oracle for the EASY
// shadow-time computation.
//
// The profile is persistent: a scheduler that replans every pass keeps
// one profile alive across passes instead of rebuilding it. LoadReleases
// bulk-loads the running jobs' release schedule into the base skyline,
// Add and Vacate then mutate it in place (a completion is a negative
// "credit" entry cancelling the tail of the planned occupancy), and
// reservations live in a separate journaled layer that
// TruncateReservations can roll back to any pass prefix — the
// changed-prefix contract the scheduler's replanning uses to reuse
// untouched reservations verbatim.
//
// Both layers are chunked ordered indexes: skydex.go holds the base
// skyline and resvindex.go the reservations. Mutations are local chunk
// edits, and equal-time credit/occupancy pairs cancel on contact.
// BeginPass advances a query horizon: base deltas at or behind it are
// indistinguishable to every valid query and fold into one offset, so
// expired chunks drop in O(1) and the live delta count tracks the running
// and planned jobs, not the history of the run. A fresh profile's horizon
// is −Inf, so a profile that never sees BeginPass answers queries at any
// time. The EarliestStart sweep skips whole skyline chunks per
// feasibility transition via per-chunk prefix extrema.
package profile

import (
	"math"
	"slices"
)

// Entry is one occupancy interval: cpus processors are busy during
// [Start, End).
type Entry struct {
	Start, End float64
	CPUs       int
}

// Release is one future processor release: CPUs processors become free at
// Time. It is the unit of LoadReleases' bulk initialization.
type Release struct {
	Time float64
	CPUs int
}

// delta is a usage change of d processors at time t.
type delta struct {
	t float64
	d int
}

// Profile is a set of occupancy entries on a machine of Total processors.
type Profile struct {
	Total    int
	nentries int

	// horizon is the latest BeginPass time (−Inf until the first one);
	// base deltas at or before it fold into pendBase.
	horizon  float64
	pendBase int

	dex skyDex // base skyline: running-job occupancies and credits

	// Reservation layer: the chunked ordered index ridx holds the deltas,
	// resvLog the placement-order journal TruncateReservations cuts.
	ridx    resvIndex
	resvLog []Entry

	scratch []delta // bulk-load and prefix-rebuild buffer

	// truncWork counts journal entries reprocessed by
	// TruncateReservations (suffix removals and prefix rebuilds) — the
	// cost bound the truncate regression tests assert on.
	truncWork int

	// Query-entry memo: consecutive EarliestStart queries of a replanning
	// pass share `from` over an unchanged base — only reservations move
	// between them — so the base entry position and usage at `from` are
	// cached under a version counter bumped by every base mutation and
	// horizon fold. Reservation-tier changes (AddReservation,
	// TruncateReservations) never touch it: reservations re-seek on every
	// query.
	ver      int     // base version; bumped on every dex mutation or fold
	memoVer  int     // ver the memo was taken at; -1 when invalid
	memoFrom float64 // NaN when invalid
	memoCi   int     // dex chunk of the first delta with t > memoFrom
	memoK    int     // in-chunk offset of that delta
	memoP    int     // base usage at memoFrom
}

// New returns an empty profile for a machine of total processors.
func New(total int) *Profile {
	p := &Profile{}
	p.reset(total)
	return p
}

// reset empties the profile for a machine of total processors, retaining
// the storage capacity of previous use, with the horizon back at −Inf.
func (p *Profile) reset(total int) {
	p.Total = total
	p.nentries = 0
	p.horizon = math.Inf(-1)
	p.pendBase = 0
	p.dex.reset()
	p.ridx.reset()
	p.resvLog = p.resvLog[:0]
	p.ver++
	p.memoVer = -1
	p.memoFrom = math.NaN()
}

// Add records an occupancy interval in the base skyline — a job start.
// Entries with non-positive duration or zero cpus are ignored.
func (p *Profile) Add(e Entry) {
	if e.End <= e.Start || e.CPUs <= 0 {
		return
	}
	p.nentries++
	p.basePush(e.Start, e.End, e.CPUs)
}

// Vacate cancels a previously recorded occupancy over [start, end): the
// processors of a job that completed (or switched gears) before its
// planned end are handed back by a negative "credit" entry. start must be
// at or before the current pass time and end must be the exact End the
// occupancy was recorded with, so the base step function over the queried
// future matches a fresh rebuild.
func (p *Profile) Vacate(cpus int, start, end float64) {
	if end <= start || cpus <= 0 {
		return
	}
	p.basePush(start, end, -cpus)
}

// basePush records the delta pair of a (possibly negative) base usage
// interval in the skyline index.
func (p *Profile) basePush(start, end float64, d int) {
	p.ver++
	p.dexPush(start, d)
	p.dexPush(end, -d)
}

// dexPush records one base delta in the chunked skyline index. A delta
// at or behind the horizon is indistinguishable to every valid query, so
// it folds straight into the pending-base offset.
func (p *Profile) dexPush(t float64, d int) {
	if t <= p.horizon {
		p.pendBase += d
		return
	}
	p.dex.insert(t, d)
}

// LoadReleases resets the profile to a machine of total processors and
// bulk-loads a running-job release schedule as its base skyline: Σ
// rels.CPUs processors are busy from now on, dropping by r.CPUs at each
// r.Time. rels must be sorted ascending by Time with every Time > now;
// the slice is not retained. One release corresponds to one occupancy
// entry [now, r.Time). The horizon restarts at −Inf; a scheduler opening
// an epoch calls BeginPass(now) next.
func (p *Profile) LoadReleases(total int, now float64, rels []Release) {
	p.reset(total)
	ds := p.scratch[:0]
	used := 0
	for _, r := range rels {
		used += r.CPUs
	}
	ds = append(ds, delta{t: now, d: used})
	for _, r := range rels {
		ds = append(ds, delta{t: r.Time, d: -r.CPUs})
	}
	p.dex.load(ds)
	p.scratch = ds[:0]
	p.nentries = len(rels)
}

// BeginPass advances the query horizon to the current pass time: queries
// are exact for times at or after the latest BeginPass, and base deltas
// at or before it fold away, which is what keeps the live delta count
// proportional to the running and planned jobs. now must be
// nondecreasing across passes.
func (p *Profile) BeginPass(now float64) {
	if now > p.horizon {
		p.horizon = now
	}
}

// AddReservation appends a planned-job reservation to the journaled
// reservation layer. Degenerate entries occupy nothing but still consume
// a journal position, so journal indexes align with the scheduler's queue
// positions.
func (p *Profile) AddReservation(e Entry) {
	p.resvLog = append(p.resvLog, e)
	if e.End <= e.Start || e.CPUs <= 0 {
		return
	}
	p.nentries++
	p.ridx.insert(delta{t: e.Start, d: e.CPUs})
	p.ridx.insert(delta{t: e.End, d: -e.CPUs})
}

// Reservations returns the number of journaled reservations.
func (p *Profile) Reservations() int { return len(p.resvLog) }

// TruncateReservations rolls the reservation layer back to its first n
// journal entries: the suffix a replanning pass invalidated is dropped,
// everything before it stays placed verbatim. Truncating to the journal's
// current length (repeated truncate-to-same-prefix included: the journal
// shrank on the first call) is O(1). Otherwise the cost is bounded by
// O(min(suffix, prefix)) chunk operations — dropped entries are removed
// point-wise, unless the kept prefix is the smaller side, in which case
// the index is rebuilt from it (and a full truncate just resets it).
func (p *Profile) TruncateReservations(n int) {
	if n < 0 {
		n = 0
	}
	if n >= len(p.resvLog) {
		return
	}
	switch {
	case n == 0:
		p.ridx.reset()
	case len(p.resvLog)-n <= n:
		for _, e := range p.resvLog[n:] {
			if e.End <= e.Start || e.CPUs <= 0 {
				continue
			}
			p.ridx.removeOne(e.Start, e.CPUs)
			p.ridx.removeOne(e.End, -e.CPUs)
		}
		p.truncWork += len(p.resvLog) - n
	default:
		// The kept prefix is the smaller side: rebuild the index from it.
		ds := p.scratch[:0]
		for _, e := range p.resvLog[:n] {
			if e.End <= e.Start || e.CPUs <= 0 {
				continue
			}
			ds = append(ds, delta{t: e.Start, d: e.CPUs}, delta{t: e.End, d: -e.CPUs})
		}
		slices.SortFunc(ds, deltaCmp)
		p.ridx.load(ds)
		p.scratch = ds[:0]
		p.truncWork += n
	}
	for _, e := range p.resvLog[n:] {
		if e.End > e.Start && e.CPUs > 0 {
			p.nentries--
		}
	}
	p.resvLog = p.resvLog[:n]
}

// BaseDeltas returns the live delta count of the base skyline — the
// scheduler's trigger for re-anchoring an epoch when credit history has
// accumulated past a multiple of the running set.
func (p *Profile) BaseDeltas() int { return p.dex.len() }

func deltaCmp(a, b delta) int {
	switch {
	case a.t < b.t:
		return -1
	case a.t > b.t:
		return 1
	}
	return 0
}

// prepare folds expired leading skyline chunks behind the horizon, which
// invalidates the query-entry memo.
func (p *Profile) prepare() {
	if f := p.dex.foldTo(p.horizon); f != 0 {
		p.pendBase += f
		p.ver++
	}
}

// Len returns the number of entries.
func (p *Profile) Len() int { return p.nentries }

// UsedAt returns the number of processors busy at time t, which must be
// at or after the latest BeginPass time.
func (p *Profile) UsedAt(t float64) int {
	p.prepare()
	return p.pendBase + p.dex.sumAt(t) + p.ridx.sumAt(t)
}

// FreeAt returns the number of processors free at time t.
func (p *Profile) FreeAt(t float64) int { return p.Total - p.UsedAt(t) }

// CanPlace reports whether cpus processors are continuously available
// during [start, start+dur). A non-positive dur degenerates to the
// instantaneous check: the processors must still be free at the start
// itself, or a zero-length job could be placed on a full machine and
// break the scheduler's allocation invariant.
func (p *Profile) CanPlace(cpus int, start, dur float64) bool {
	if cpus > p.Total {
		return false
	}
	if dur <= 0 {
		return p.UsedAt(start)+cpus <= p.Total
	}
	return p.EarliestStart(cpus, dur, start) == start
}

// ovCursor walks the reservation index in time order: the overlay the
// EarliestStart sweep merges over the base skyline. It is kept
// normalized: ci < len(chunks) implies ck < len(chunks[ci]).
type ovCursor struct {
	ix     *resvIndex // nil when there is nothing left to overlay
	ci, ck int
}

// peek returns the time of the next reservation delta, +Inf when
// exhausted.
func (c *ovCursor) peek() float64 {
	if c.ix == nil || c.ci >= len(c.ix.chunks) {
		return math.Inf(1)
	}
	return c.ix.chunks[c.ci][c.ck].t
}

// take consumes every reservation delta at exactly t and returns their
// sum.
func (c *ovCursor) take(t float64) int {
	d := 0
	for c.peek() == t {
		d += c.ix.chunks[c.ci][c.ck].d
		c.ck++
		if c.ck >= len(c.ix.chunks[c.ci]) {
			c.ci++
			c.ck = 0
		}
	}
	return d
}

// EarliestStart returns the earliest time t >= from at which cpus
// processors are continuously available for dur seconds. It returns +Inf
// when cpus exceeds the machine size. from must be at or after the
// latest BeginPass time. The base entry position and usage at `from` are
// memoized under the base version counter; the sweep then jumps between
// feasibility transitions, skipping whole chunks of the skyline index via
// their prefix extrema, with the reservation index overlaid.
func (p *Profile) EarliestStart(cpus int, dur, from float64) float64 {
	if cpus > p.Total {
		return math.Inf(1)
	}
	p.prepare()
	var ci, k, P int
	if p.ver == p.memoVer && from == p.memoFrom {
		ci, k, P = p.memoCi, p.memoK, p.memoP
	} else {
		ci, k, P = p.dex.seek(from)
		p.memoVer, p.memoFrom = p.ver, from
		p.memoCi, p.memoK, p.memoP = ci, k, P
	}
	V := p.pendBase
	var ov ovCursor
	if p.ridx.size > 0 {
		rci, rck, rv := p.ridx.seek(from)
		V += rv
		if rci < len(p.ridx.chunks) {
			ov = ovCursor{ix: &p.ridx, ci: rci, ck: rck}
		}
	}
	return p.earliestDex(ci, k, P, V, ov, p.Total-cpus, dur, from)
}

// earliestDex is the chunk-skipping feasibility sweep over the skyline
// index: between overlay (reservation) boundaries the base usage is
// constant-shifted, so the next feasibility transition is found by
// cross, which skips whole chunks whose prefix extrema exclude one. Its
// semantics are those of a plain merge sweep over the materialized base
// and reservation deltas; the profile tests hold it to exactly that.
func (p *Profile) earliestDex(ci, k, P, V int, ov ovCursor, limit int, dur, from float64) float64 {
	d := &p.dex
	used := P + V
	cand := from
	for {
		tOv := ov.peek()
		// Sweep the base deltas before tOv under constant overlay V: base
		// usage must stay at or below L for a window to be feasible.
		L := limit - V
		for {
			above := used <= limit
			nci, nk, nP, t, ip, ok := d.cross(ci, k, P, L, above, tOv)
			ci, k, P = nci, nk, nP
			if !ok {
				// No more crossings before the boundary; the cursor sits on
				// the first delta at or after it.
				used = P + V
				break
			}
			if above {
				if t-cand >= dur {
					return cand
				}
			} else {
				// Violated segments end where the usage drops back to the
				// limit: the candidate restarts at that boundary.
				cand = t
			}
			used = ip + V
		}
		// The segment ending at the overlay boundary has constant usage.
		if used > limit {
			cand = tOv
		} else if tOv-cand >= dur {
			return cand // also the tOv = +Inf exit: the tail is free
		}
		if math.IsInf(tOv, 1) {
			return cand
		}
		V += ov.take(tOv)
		for ci < len(d.chunks) && d.chunks[ci].ds[k].t == tOv {
			P += d.chunks[ci].ds[k].d
			k++
			if k == len(d.chunks[ci].ds) {
				ci, k = ci+1, 0
			}
		}
		used = P + V
	}
}
