package workload

// JobSource streams a workload one job at a time in nondecreasing submit
// order, so consumers (the scheduler above all) never need the whole trace
// in memory: a million- or ten-million-job replay holds O(running jobs)
// live state instead of O(trace). Trace-backed code keeps working through
// the SliceSource adapter; generators and the incremental SWF reader
// implement the interface natively.
//
// Contract:
//   - Next returns jobs with nondecreasing Submit. The scheduler rejects a
//     source that regresses (materialize and sort through ParseSWF for
//     unsorted inputs).
//   - Next returning false means the stream ended — either exhausted or
//     failed; Err distinguishes (nil on clean exhaustion).
//   - Reset rewinds to the first job and clears Err, so one source can
//     back several simulation runs (policy vs baseline, sweep repeats).
type JobSource interface {
	// Name identifies the workload (trace or model name).
	Name() string
	// CPUs is the processor count of the system the workload targets.
	CPUs() int
	// Next returns the next job, or ok=false at end of stream or error.
	Next() (Job, bool)
	// Reset rewinds the source to its first job.
	Reset() error
	// Err returns the first error the stream hit, nil on clean exhaustion.
	Err() error
}

// Counted is implemented by sources that know their total job count
// upfront (generators, slices); WriteSWFStream uses it to emit the same
// MaxJobs header the materialized writer produces.
type Counted interface {
	// Len returns the total number of jobs the source will yield.
	Len() int
}

// PtrSource is implemented by sources whose jobs already live on the heap
// with stable identity (SliceSource). The scheduler prefers NextPtr to
// avoid re-allocating a Job per arrival when replaying materialized
// traces.
type PtrSource interface {
	NextPtr() (*Job, bool)
}

// SliceSource adapts a materialized job slice to the JobSource interface.
// It assumes the slice is already in nondecreasing submit order (as
// Trace.SortBySubmit, ParseSWF and the generators guarantee).
type SliceSource struct {
	name string
	cpus int
	jobs []*Job
	pos  int
}

var (
	_ JobSource = (*SliceSource)(nil)
	_ Counted   = (*SliceSource)(nil)
	_ PtrSource = (*SliceSource)(nil)
)

// NewSliceSource wraps a job slice as a source.
func NewSliceSource(name string, cpus int, jobs []*Job) *SliceSource {
	return &SliceSource{name: name, cpus: cpus, jobs: jobs}
}

// Source adapts the trace to the streaming interface. The trace must be
// submit-sorted (call SortBySubmit first if in doubt); jobs are shared,
// not copied.
func (t *Trace) Source() *SliceSource {
	return NewSliceSource(t.Name, t.CPUs, t.Jobs)
}

// Name implements JobSource.
func (s *SliceSource) Name() string { return s.name }

// CPUs implements JobSource.
func (s *SliceSource) CPUs() int { return s.cpus }

// Len implements Counted.
func (s *SliceSource) Len() int { return len(s.jobs) }

// Next implements JobSource.
func (s *SliceSource) Next() (Job, bool) {
	if s.pos >= len(s.jobs) {
		return Job{}, false
	}
	j := *s.jobs[s.pos]
	s.pos++
	return j, true
}

// NextPtr implements PtrSource, handing out the slice's own pointers.
func (s *SliceSource) NextPtr() (*Job, bool) {
	if s.pos >= len(s.jobs) {
		return nil, false
	}
	j := s.jobs[s.pos]
	s.pos++
	return j, true
}

// Reset implements JobSource.
func (s *SliceSource) Reset() error {
	s.pos = 0
	return nil
}

// Err implements JobSource; a slice never fails.
func (s *SliceSource) Err() error { return nil }

// StatsOf computes the trace summary statistics in one streaming pass,
// consuming the source from its current position — the O(1)-memory
// counterpart of Trace.ComputeStats for workloads too large to hold.
func StatsOf(src JobSource) (Stats, error) {
	var s Stats
	cpus := src.CPUs()
	var first, last float64
	serial := 0
	var cpuSec, rtSum, procSum float64
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		if s.Jobs == 0 {
			first, last = j.Submit, j.Submit
		}
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
		s.Jobs++
	}
	if err := src.Err(); err != nil {
		return Stats{}, err
	}
	if s.Jobs == 0 {
		return s, nil
	}
	s.TotalCPUHours = cpuSec / 3600
	s.Span = last - first
	if s.Span > 0 && cpus > 0 {
		s.Utilization = cpuSec / (float64(cpus) * s.Span)
	}
	s.SerialShare = float64(serial) / float64(s.Jobs)
	s.MeanRuntime = rtSum / float64(s.Jobs)
	s.MeanProcs = procSum / float64(s.Jobs)
	return s, nil
}
