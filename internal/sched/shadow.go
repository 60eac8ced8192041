package sched

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/workload"
)

// release is one running job's planned processor release, the unit of the
// shadow-time sweep and of the availability-profile bulk load.
type release struct {
	t    float64
	cpus int
	id   int
}

// collectReleases rebuilds the sorted release slice from the live run
// list into the shared scratch cache and returns it: the one bulk build a
// dirty schedule gets when its first consumer arrives.
func (s *System) collectReleases() []release {
	rels := s.relCache[:0]
	for _, rs := range s.runList {
		if rs == nil {
			continue // tombstoned completion
		}
		rels = append(rels, release{t: rs.PlannedEnd, cpus: rs.Job.Procs, id: rs.Job.ID})
	}
	slices.SortFunc(rels, func(a, b release) int {
		switch {
		case a.t < b.t:
			return -1
		case a.t > b.t:
			return 1
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		}
		return 0
	})
	s.relCache = rels
	return rels
}

// releaseIndex returns the chunked ordered release index, rebuilding it
// from the run list when it is dirty: on first use (New starts dirty, so
// run lists assembled outside start(), as white-box tests do, are picked
// up too) and after relStale gave up on a mutation burst.
//
// Times are stored unclamped; consumers clamp entries at or before `now`
// to strictly-after-now on the fly. Clamping maps a prefix of the sorted
// order onto one shared time point, and every consumer treats equal-time
// releases as a single group, so the result is identical to a
// clamp-then-sort order.
func (s *System) releaseIndex() *relIndex {
	s.relUnread = 0
	if s.relDirty {
		s.relIdx.load(s.collectReleases())
		s.relDirty = false
	}
	return &s.relIdx
}

// relStale reports whether a mutation may skip the release schedule
// because the next reader rebuilds it anyway. That holds while it is
// dirty, and it becomes dirty once the mutations since the last read
// exceed a sixteenth of its size plus relChurnSlack. One ordered update
// costs about what one release adds to a rebuild, so a burst with no
// reader in between — a power controller re-gearing most running jobs
// in one pass, a stretch of passes whose queue head always fits — costs
// at most a sixteenth more than the rebuild its next reader does, while
// the common case of a few starts and completions between blocked
// passes stays on ordered updates. The rebuild yields the same
// (PlannedEnd, id) order, so schedules do not depend on which path a
// mutation took.
func (s *System) relStale() bool {
	if s.relDirty {
		return true
	}
	s.relUnread++
	if s.relUnread > s.relIdx.len()/16+relChurnSlack {
		s.relDirty = true
		return true
	}
	return false
}

// relChurnSlack covers a rebuild's fixed cost in relStale's bound.
const relChurnSlack = 2

// relAdd registers a newly started (or re-geared) job's planned release
// with an ordered insert. While the schedule is dirty (see relStale) the
// insert is skipped: the next reader's rebuild reads the run list, which
// will already include this job. A run that never reads the schedule
// (FCFS, an EASY replay whose heads always fit) thus pays one branch per
// event and never builds it.
func (s *System) relAdd(rs *RunState) {
	if s.relStale() {
		return
	}
	s.relIdx.insert(release{t: rs.PlannedEnd, cpus: rs.Job.Procs, id: rs.Job.ID})
}

// relRemove drops a finished (or about-to-be-re-geared) job's planned
// release; like relAdd it has nothing to do while the schedule is stale.
// rs.PlannedEnd must still hold the value relAdd registered; a release
// the schedule no longer knows is a scheduler invariant violation
// reported as an error, which callers surface through Simulate's error
// path via fail.
func (s *System) relRemove(rs *RunState) error {
	if s.relStale() {
		return nil
	}
	if !s.relIdx.remove(rs.PlannedEnd, rs.Job.ID) {
		return fmt.Errorf("sched: release schedule lost job %d (planned end %v)", rs.Job.ID, rs.PlannedEnd)
	}
	return nil
}

// clampRelease keeps a release time strictly after now: a job at its kill
// limit still holds its processors until its completion event fires
// (possibly later at this same timestamp), so capacity planning must not
// hand its processors out at `now` itself.
func clampRelease(t, now float64) float64 {
	if t <= now {
		return math.Nextafter(now, math.Inf(1))
	}
	return t
}

// shadow computes the EASY reservation for a head job that cannot start
// now: the shadow time (earliest time enough processors are free according
// to the running jobs' kill limits) and the number of extra processors
// that remain free at the shadow time after the head starts. A backfilled
// job may run past the shadow time only on those extra processors.
//
// Because only running jobs hold processors (EASY keeps a single
// reservation), availability is non-decreasing in time and the sweep over
// planned completions is exact. It runs two phases fused into one
// in-order walk of the release index's chunks: accumulate releases until
// the head fits, then absorb the equal-time group at the shadow instant —
// the head starts once they have all completed, so their processors count
// as available when sizing the extra pool.
func (s *System) shadow(head *workload.Job, now float64) (float64, int) {
	avail := s.cl.FreeCount()
	shadowT := now
	grouping := avail >= head.Procs
	for _, ch := range s.releaseIndex().chunks {
		for _, r := range ch {
			if grouping {
				if clampRelease(r.t, now) != shadowT {
					return shadowT, avail - head.Procs
				}
				avail += r.cpus
				continue
			}
			avail += r.cpus
			shadowT = clampRelease(r.t, now)
			grouping = avail >= head.Procs
		}
	}
	return shadowT, avail - head.Procs
}
