package workload

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
