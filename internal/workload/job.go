// Package workload defines the rigid parallel job model used throughout
// the simulator and implements reading and writing of the Standard
// Workload Format (SWF) used by the Parallel Workload Archive, the source
// of the five traces evaluated in the paper.
//
// Workloads flow through the package in two forms: the materialized Trace
// (a job slice, convenient for analyses that need the whole workload) and
// the streaming JobSource (one job at a time in submit order, the form
// the scheduler consumes — a replay then holds O(running jobs) live
// memory regardless of trace length). SliceSource adapts the former to
// the latter, and SWFSource reads logs incrementally.
package workload

import (
	"fmt"
	"math"
	"sort"
)

// Job is one rigid parallel job of a workload trace. Times are seconds.
// Runtime and ReqTime refer to execution at the top CPU frequency; the
// scheduler dilates them when it assigns a reduced gear.
type Job struct {
	ID      int     // unique job number within the trace
	Submit  float64 // arrival time, seconds from trace start
	Runtime float64 // actual execution time at top frequency
	Procs   int     // number of processors (rigid)
	ReqTime float64 // user-requested wall-clock limit at top frequency
	// Beta optionally overrides the global β dilation sensitivity for this
	// job. Negative means "use the global value". Supports the paper's
	// future-work analysis of per-job DVFS potential.
	Beta float64
	// User identifies the submitting user (-1 unknown). Flurry cleaning —
	// the preprocessing the paper's "cleaned traces" received — operates
	// per user.
	User int
	// Status classifies the job's completion on the original system, as
	// recorded in SWF field 11. The zero value is StatusUnknown, so
	// hand-built traces are never accidentally marked failed; ParseSWF
	// and WriteSWF translate to and from the SWF on-disk encoding
	// (1 completed, 0 failed, 5 canceled, -1 missing). The simulator
	// itself ignores Status; it only drives the opt-in replay filters
	// (SWFFilter).
	Status int
	// Eco marks the job as opted into eco-mode power management
	// (Angelelli et al.'s user-assisted capping): an eco-only power-cap
	// controller may regear only jobs carrying the flag. SWF logs have no
	// such column, so the flag is derived at load time from the
	// submitting user via SWFFilter.EcoUsers (see EcoSet); wgen preset
	// resolution applies the same hook to generated jobs.
	Eco bool
}

// Job completion statuses (internal encoding; the zero value is unknown
// by design — see Job.Status for the SWF on-disk mapping).
const (
	StatusUnknown = iota
	StatusCompleted
	StatusFailed
	StatusCanceled
)

// Validate reports the first problem with the job's fields, or nil.
func (j *Job) Validate() error {
	switch {
	case j.Procs < 1:
		return fmt.Errorf("workload: job %d requests %d processors", j.ID, j.Procs)
	case j.Submit < 0:
		return fmt.Errorf("workload: job %d has negative submit time %v", j.ID, j.Submit)
	case j.Runtime < 0:
		return fmt.Errorf("workload: job %d has negative runtime %v", j.ID, j.Runtime)
	case j.ReqTime <= 0:
		return fmt.Errorf("workload: job %d has non-positive requested time %v", j.ID, j.ReqTime)
	case math.IsNaN(j.Beta) || math.IsInf(j.Beta, 1):
		return fmt.Errorf("workload: job %d has β override %v", j.ID, j.Beta)
	}
	return nil
}

// EffectiveRuntime returns the runtime the cluster will observe at the top
// frequency: the actual runtime capped by the requested limit (jobs hitting
// their wall-clock limit are killed).
func (j *Job) EffectiveRuntime() float64 {
	if j.Runtime > j.ReqTime {
		return j.ReqTime
	}
	return j.Runtime
}

// Trace is an ordered collection of jobs plus the size of the system the
// trace was recorded on.
type Trace struct {
	Name string
	CPUs int // processors of the original system
	Jobs []*Job
}

// Validate checks the trace and every job in it.
func (t *Trace) Validate() error {
	if t.CPUs < 1 {
		return fmt.Errorf("workload: trace %q has %d CPUs", t.Name, t.CPUs)
	}
	if len(t.Jobs) == 0 {
		return fmt.Errorf("workload: trace %q is empty", t.Name)
	}
	for _, j := range t.Jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if j.Procs > t.CPUs {
			return fmt.Errorf("workload: job %d requests %d > %d system processors", j.ID, j.Procs, t.CPUs)
		}
	}
	return nil
}

// SortBySubmit orders the jobs by submit time, breaking ties by ID, which
// is the arrival order the scheduler consumes.
func (t *Trace) SortBySubmit() {
	sort.SliceStable(t.Jobs, func(a, b int) bool {
		if t.Jobs[a].Submit != t.Jobs[b].Submit {
			return t.Jobs[a].Submit < t.Jobs[b].Submit
		}
		return t.Jobs[a].ID < t.Jobs[b].ID
	})
}

// Stats summarizes the trace: totals used to report workload tables and to
// calibrate generators.
type Stats struct {
	Jobs          int
	TotalCPUHours float64 // Σ procs·runtime in hours
	Span          float64 // last submit − first submit, seconds
	Utilization   float64 // CPU-seconds demanded / (CPUs·span)
	SerialShare   float64 // fraction of single-processor jobs
	MeanRuntime   float64
	MeanProcs     float64
}

// ComputeStats derives summary statistics. The trace must be non-empty.
func (t *Trace) ComputeStats() Stats {
	s := Stats{Jobs: len(t.Jobs)}
	if len(t.Jobs) == 0 {
		return s
	}
	first, last := t.Jobs[0].Submit, t.Jobs[0].Submit
	serial := 0
	var cpuSec, rtSum, procSum float64
	for _, j := range t.Jobs {
		if j.Submit < first {
			first = j.Submit
		}
		if j.Submit > last {
			last = j.Submit
		}
		cpuSec += float64(j.Procs) * j.EffectiveRuntime()
		rtSum += j.EffectiveRuntime()
		procSum += float64(j.Procs)
		if j.Procs == 1 {
			serial++
		}
	}
	s.TotalCPUHours = cpuSec / 3600
	s.Span = last - first
	if s.Span > 0 && t.CPUs > 0 {
		s.Utilization = cpuSec / (float64(t.CPUs) * s.Span)
	}
	s.SerialShare = float64(serial) / float64(len(t.Jobs))
	s.MeanRuntime = rtSum / float64(len(t.Jobs))
	s.MeanProcs = procSum / float64(len(t.Jobs))
	return s
}

// Slice returns a shallow copy of the trace restricted to jobs [lo, hi).
// Indices are clamped to the valid range.
func (t *Trace) Slice(lo, hi int) *Trace {
	if lo < 0 {
		lo = 0
	}
	if hi > len(t.Jobs) {
		hi = len(t.Jobs)
	}
	if lo > hi {
		lo = hi
	}
	return &Trace{Name: t.Name, CPUs: t.CPUs, Jobs: t.Jobs[lo:hi]}
}
