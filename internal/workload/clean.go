package workload

import "sort"

// The Parallel Workload Archive publishes "cleaned" versions of its logs
// with flurries removed: bursts of activity by a single user that are not
// representative of normal usage and can dominate scheduling metrics. The
// paper simulates cleaned traces, so the same preprocessing is provided
// here for users feeding raw logs in.

// CleanConfig parameterizes flurry removal.
type CleanConfig struct {
	// Window is the sliding time window in seconds.
	Window float64
	// MaxJobsPerUser is the largest number of jobs one user may submit
	// inside any window; excess jobs are flagged as flurry members.
	MaxJobsPerUser int
}

// DefaultCleanConfig mirrors the archive's heuristic scale: more than a
// hundred jobs by one user within an hour is a flurry.
func DefaultCleanConfig() CleanConfig {
	return CleanConfig{Window: 3600, MaxJobsPerUser: 100}
}

// RemoveFlurries returns a copy of the trace without flurry jobs and the
// number of jobs removed. Jobs with unknown user (-1) are never removed.
// Within a window the earliest MaxJobsPerUser jobs are kept, matching the
// archive convention of trimming the burst's tail.
func RemoveFlurries(t *Trace, cfg CleanConfig) (*Trace, int) {
	if cfg.Window <= 0 || cfg.MaxJobsPerUser <= 0 {
		return &Trace{Name: t.Name, CPUs: t.CPUs, Jobs: append([]*Job(nil), t.Jobs...)}, 0
	}
	byUser := make(map[int][]*Job)
	for _, j := range t.Jobs {
		if j.User >= 0 {
			byUser[j.User] = append(byUser[j.User], j)
		}
	}
	drop := make(map[*Job]bool)
	for _, jobs := range byUser {
		sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Submit < jobs[b].Submit })
		lo := 0
		kept := 0 // jobs kept in the current window [submit[lo], submit[i]]
		for i, j := range jobs {
			for jobs[i].Submit-jobs[lo].Submit > cfg.Window {
				if !drop[jobs[lo]] {
					kept--
				}
				lo++
			}
			if kept >= cfg.MaxJobsPerUser {
				drop[j] = true
			} else {
				kept++
			}
		}
	}
	out := &Trace{Name: t.Name, CPUs: t.CPUs}
	removed := 0
	for _, j := range t.Jobs {
		if drop[j] {
			removed++
			continue
		}
		out.Jobs = append(out.Jobs, j)
	}
	return out, removed
}

// ScaleLoad returns a copy of the trace with the offered load multiplied
// by factor: interarrival gaps shrink by 1/factor (factor > 1 compresses
// arrivals, raising utilization). Jobs themselves are copied so the input
// trace stays usable. This is the standard sensitivity transform of the
// job scheduling literature.
func ScaleLoad(t *Trace, factor float64) *Trace {
	out := &Trace{Name: t.Name, CPUs: t.CPUs, Jobs: make([]*Job, len(t.Jobs))}
	if len(t.Jobs) == 0 || factor <= 0 {
		for i, j := range t.Jobs {
			cp := *j
			out.Jobs[i] = &cp
		}
		return out
	}
	first := t.Jobs[0].Submit
	for i, j := range t.Jobs {
		cp := *j
		cp.Submit = first + (j.Submit-first)/factor
		out.Jobs[i] = &cp
	}
	return out
}
