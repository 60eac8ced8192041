// Package profile implements an availability profile: a step function of
// processor usage over future time built from running and planned jobs.
// The conservative and flexible backfilling variants plan every protected
// job against it, and tests use it as an independent oracle for the EASY
// shadow-time computation.
//
// The profile is persistent: a scheduler that replans every pass keeps
// one profile alive across passes instead of rebuilding it. LoadReleases
// bulk-loads the running jobs' release schedule, Add and Vacate then
// mutate it in place (a completion is a negative "credit" entry
// cancelling the tail of the planned occupancy), and reservations are
// journaled so that TruncateReservations can roll them back to any pass
// prefix — the changed-prefix contract the scheduler's replanning uses to
// reuse untouched reservations verbatim.
//
// Running jobs, credits and reservations share one skyline: the chunked
// ordered index in skydex.go. Mutations are local chunk edits, equal-time
// deltas coalesce and cancel on contact, and a truncation pushes the
// negated deltas of the dropped journal suffix. BeginPass advances a
// query horizon: deltas at or behind it are indistinguishable to every
// valid query and fold into one offset, so expired chunks drop in O(1)
// and the live delta count tracks the running and planned jobs, not the
// history of the run. A fresh profile's horizon is −Inf, so a profile
// that never sees BeginPass answers queries at any time. The
// EarliestStart sweep sums deltas as it scans, skips whole skyline chunks
// per feasibility transition via the prefix extrema earlier full-chunk
// scans left, and stops at the window's end; a reservation placed right
// after the sweep that found it is inserted where the sweep stopped.
//
// EarliestStartBlocked has the same sweep record the violated stretches
// it crossed (a Blocking, blocking.go). A scheduler keeping a
// reservation across passes credits that record with each completion
// and replays it: while the replay still returns the recorded start,
// the reservation is provably unchanged and need not be replanned.
package profile

import "math"

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

// delta is a usage change of d processors at time t, b of them base
// usage (running jobs and credits; the rest is reservations).
type delta struct {
	t    float64
	d, b int
}

// Profile is a set of occupancy entries on a machine of Total processors.
type Profile struct {
	Total int

	// horizon is the latest BeginPass time (−Inf until the first one);
	// deltas at or before it fold into folded.
	horizon float64
	folded  int

	// dex holds every live delta: running-job occupancies, credits and
	// reservations. resvLog is the reservations' placement-order journal
	// TruncateReservations cuts.
	dex     skyDex
	resvLog []Entry

	scratch []delta // bulk-load buffer

	// truncWork counts journal entries reprocessed by
	// TruncateReservations — the cost the truncate regression tests
	// assert on.
	truncWork int
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
	p.horizon = math.Inf(-1)
	p.folded = 0
	p.dex.reset()
	p.resvLog = p.resvLog[:0]
}

// Add records an occupancy interval in the base skyline — a job start.
// Entries with non-positive duration or zero cpus are ignored.
func (p *Profile) Add(e Entry) {
	if e.End <= e.Start || e.CPUs <= 0 {
		return
	}
	p.pushPair(e.Start, e.End, e.CPUs, e.CPUs)
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
	p.pushPair(start, end, -cpus, -cpus)
}

// pushPair records the delta pair of a (possibly negative) usage interval
// of d processors over [start, end), b of them base usage.
func (p *Profile) pushPair(start, end float64, d, b int) {
	p.push(start, d, b)
	p.push(end, -d, -b)
}

// push records one delta in the skyline index. A delta at or behind the
// horizon is indistinguishable to every valid query, so it folds straight
// into the offset.
func (p *Profile) push(t float64, d, b int) {
	if t <= p.horizon {
		p.folded += d
		return
	}
	p.dex.insert(t, d, b)
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
}

// BeginPass advances the query horizon to the current pass time: queries
// are exact for times at or after the latest BeginPass, and deltas at or
// before it fold away, which is what keeps the live delta count
// proportional to the running and planned jobs. now must be
// nondecreasing across passes.
func (p *Profile) BeginPass(now float64) {
	if now > p.horizon {
		p.horizon = now
	}
}

// AddReservation appends a planned-job reservation to the journal and its
// delta pair to the skyline. Degenerate entries occupy nothing but still
// consume a journal position, so journal indexes align with the
// scheduler's queue positions. A reservation of exactly the window the
// latest EarliestStart found, with no mutation in between, is inserted
// where that sweep stopped instead of searched for.
func (p *Profile) AddReservation(e Entry) {
	p.resvLog = append(p.resvLog, e)
	if e.End <= e.Start || e.CPUs <= 0 {
		return
	}
	if e.Start <= p.horizon {
		p.pushPair(e.Start, e.End, e.CPUs, 0)
		return
	}
	p.dex.insertPair(e.Start, e.End, e.CPUs)
}

// Reservations returns the number of journaled reservations.
func (p *Profile) Reservations() int { return len(p.resvLog) }

// TruncateReservations rolls the reservations back to their first n
// journal entries: the suffix a replanning pass invalidated is dropped by
// pushing its negated delta pairs, everything before it stays placed
// verbatim. The cost is exactly the dropped suffix; truncating to the
// journal's current length or beyond (repeated truncate-to-same-prefix
// included: the journal shrank on the first call) does nothing.
func (p *Profile) TruncateReservations(n int) {
	n = max(n, 0)
	if n >= len(p.resvLog) {
		return
	}
	for _, e := range p.resvLog[n:] {
		if e.End > e.Start && e.CPUs > 0 {
			p.pushPair(e.Start, e.End, -e.CPUs, 0)
		}
	}
	p.truncWork += len(p.resvLog) - n
	p.resvLog = p.resvLog[:n]
}

// BaseDeltas returns the live delta count of the base skyline — the
// scheduler's trigger for re-anchoring an epoch when credit history has
// accumulated past a multiple of the running set. Reservations do not
// count, even where they coalesce with a base delta.
func (p *Profile) BaseDeltas() int { return p.dex.bases }

// prepare folds expired leading skyline deltas behind the horizon.
func (p *Profile) prepare() {
	p.folded += p.dex.foldTo(p.horizon)
}

// UsedAt returns the number of processors busy at time t, which must be
// at or after the latest BeginPass time.
func (p *Profile) UsedAt(t float64) int {
	p.prepare()
	return p.folded + p.dex.sumAt(t)
}

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

// EarliestStart returns the earliest time t >= from at which cpus
// processors are continuously available for dur seconds. It returns +Inf
// when cpus exceeds the machine size. from must be at or after the
// latest BeginPass time. The sweep (skyDex.earliest) enters at `from` —
// the skyline's front when `from` is the pass time, as it is for every
// scheduler query — then jumps between feasibility transitions, skipping
// whole chunks of a large skyline via the prefix extrema earlier scans
// left, and searches a feasible window only up to its end. It runs
// without a recorder; EarliestStartBlocked is the same sweep with one.
func (p *Profile) EarliestStart(cpus int, dur, from float64) float64 {
	return p.earliestStart(cpus, dur, from, nil)
}

// EarliestStartBlocked is EarliestStart that also appends to *rec the
// violated stretches the sweep crossed between from and its answer: what
// kept the placement from starting earlier (see Blocking).
func (p *Profile) EarliestStartBlocked(cpus int, dur, from float64, rec *Blocking) float64 {
	return p.earliestStart(cpus, dur, from, rec)
}

func (p *Profile) earliestStart(cpus int, dur, from float64, rec *Blocking) float64 {
	if cpus > p.Total {
		return math.Inf(1)
	}
	p.prepare()
	ci, k, P := p.dex.seek(from)
	return p.dex.earliest(ci, k, P, p.Total-cpus-p.folded, dur, from, rec)
}
