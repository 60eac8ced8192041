package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/profile"
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

// sortedReleases returns the live run list's planned releases sorted by
// (raw planned end, job ID) as a flat slice: the Compat.SliceReleases
// reference schedule. A dirty schedule is rebuilt from the run list; a
// current one, kept so by relAdd and relRemove, is returned as is.
// Index-backed systems consume releaseIndex instead.
//
// Times are stored unclamped; consumers clamp entries at or before `now`
// to strictly-after-now on the fly. Clamping maps a prefix of the sorted
// order onto one shared time point, and every consumer treats equal-time
// releases as a single group, so the result is identical to the seed-era
// clamp-then-sort order.
func (s *System) sortedReleases() []release {
	s.relUnread = 0
	if !s.relDirty {
		return s.relCache
	}
	rels := s.collectReleases()
	s.relDirty = false
	return rels
}

// releaseIndex returns the chunked ordered release index, rebuilding it
// from the run list when it is dirty: on first use (New starts dirty, so
// run lists assembled outside start(), as white-box tests do, are picked
// up too) and after relStale gave up on a mutation burst.
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
	n := s.relIdx.len()
	if !s.relIndexed {
		n = len(s.relCache)
	}
	if s.relUnread > n/16+relChurnSlack {
		s.relDirty = true
		return true
	}
	return false
}

// relChurnSlack covers a rebuild's fixed cost in relStale's bound.
const relChurnSlack = 2

// releaseCount returns the number of live planned releases.
func (s *System) releaseCount() int {
	if s.relIndexed {
		return s.releaseIndex().len()
	}
	return len(s.sortedReleases())
}

// minRelease returns the earliest (unclamped) planned release time.
func (s *System) minRelease() (float64, bool) {
	if s.relIndexed {
		r, ok := s.releaseIndex().min()
		return r.t, ok
	}
	rels := s.sortedReleases()
	if len(rels) == 0 {
		return 0, false
	}
	return rels[0].t, true
}

// appendClampedReleases appends the sorted release schedule, clamped
// strictly after now, to buf — the bulk snapshot feeding the availability
// profile's LoadReleases / StartEpoch.
func (s *System) appendClampedReleases(buf []profile.Release, now float64) []profile.Release {
	if s.relIndexed {
		return s.releaseIndex().appendClamped(buf, now)
	}
	for _, r := range s.sortedReleases() {
		buf = append(buf, profile.Release{Time: clampRelease(r.t, now), CPUs: r.cpus})
	}
	return buf
}

// relAdd registers a newly started (or re-geared) job's planned release
// with an ordered insert. While the schedule is dirty (see relStale) the
// insert is skipped: the next reader's rebuild reads the run list, which
// will already include this job. A run that never reads the schedule
// (FCFS, an EASY replay whose heads always fit, the seed-era
// Compat.ScratchAlloc paths) thus pays one branch per event and never
// builds it.
func (s *System) relAdd(rs *RunState) {
	if s.relStale() {
		return
	}
	r := release{t: rs.PlannedEnd, cpus: rs.Job.Procs, id: rs.Job.ID}
	if s.relIndexed {
		s.relIdx.insert(r)
		return
	}
	i := sort.Search(len(s.relCache), func(k int) bool {
		c := s.relCache[k]
		return c.t > r.t || (c.t == r.t && c.id > r.id)
	})
	s.relCache = append(s.relCache, release{})
	copy(s.relCache[i+1:], s.relCache[i:])
	s.relCache[i] = r
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
	t, id := rs.PlannedEnd, rs.Job.ID
	if s.relIndexed {
		if !s.relIdx.remove(t, id) {
			return lostReleaseError(id, t)
		}
		return nil
	}
	i := sort.Search(len(s.relCache), func(k int) bool {
		c := s.relCache[k]
		return c.t > t || (c.t == t && c.id >= id)
	})
	if i >= len(s.relCache) || s.relCache[i].t != t || s.relCache[i].id != id {
		return lostReleaseError(id, t)
	}
	copy(s.relCache[i:], s.relCache[i+1:])
	s.relCache = s.relCache[:len(s.relCache)-1]
	return nil
}

// lostReleaseError reports a release schedule that lost track of a
// running job — a broken scheduler invariant (or a caller mutating
// PlannedEnd behind the schedule's back).
func lostReleaseError(id int, t float64) error {
	return fmt.Errorf("sched: release schedule lost job %d (planned end %v)", id, t)
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
// planned completions is exact.
func (s *System) shadow(head *workload.Job, now float64) (float64, int) {
	avail := s.cl.FreeCount()
	if s.cfg.Compat.ScratchAlloc {
		return s.shadowSeed(head, now, avail)
	}
	if s.relIndexed {
		return s.shadowIndexed(head, now, avail)
	}
	rels := s.sortedReleases()
	shadowT := now
	i := 0
	for ; i < len(rels) && avail < head.Procs; i++ {
		avail += rels[i].cpus
		shadowT = clampRelease(rels[i].t, now)
	}
	// Include every release at exactly the shadow time: the head starts
	// once they have all completed, so their processors count as
	// available when sizing the extra pool.
	for ; i < len(rels) && clampRelease(rels[i].t, now) == shadowT; i++ {
		avail += rels[i].cpus
	}
	return shadowT, avail - head.Procs
}

// shadowIndexed is the shadow sweep over the chunked release index: the
// same two phases as the slice sweep — accumulate releases until the head
// fits, then absorb the equal-time group at the shadow instant — fused
// into one in-order walk of the chunks.
func (s *System) shadowIndexed(head *workload.Job, now float64, avail int) (float64, int) {
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

// shadowSeed is the seed-era shadow computation: rebuild the release
// list, clamp, then sort, on every blocked pass.
func (s *System) shadowSeed(head *workload.Job, now float64, avail int) (float64, int) {
	rels := make([]release, 0, s.runningCount())
	for _, rs := range s.runList {
		if rs == nil {
			continue
		}
		rels = append(rels, release{t: clampRelease(rs.PlannedEnd, now), cpus: rs.Job.Procs, id: rs.Job.ID})
	}
	sort.Slice(rels, func(i, j int) bool {
		if rels[i].t != rels[j].t {
			return rels[i].t < rels[j].t
		}
		return rels[i].id < rels[j].id
	})
	shadowT := now
	i := 0
	for ; i < len(rels) && avail < head.Procs; i++ {
		avail += rels[i].cpus
		shadowT = rels[i].t
	}
	for ; i < len(rels) && rels[i].t == shadowT; i++ {
		avail += rels[i].cpus
	}
	if shadowT < now {
		shadowT = now
	}
	return shadowT, avail - head.Procs
}
