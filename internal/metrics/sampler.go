package metrics

import "repro/internal/sched"

// SystemSample is one post-pass snapshot of the machine.
type SystemSample struct {
	T      float64 // simulation time of the scheduling pass
	Queued int     // jobs waiting on execution
	Busy   int     // processors executing jobs
}

// SystemSampler records the machine's state after every scheduling pass.
// Attach it through scenario.Spec.ExtraRecorders to obtain utilization and
// backlog time series (the system-level view complementing Figure 6's
// per-job waits).
//
//lint:deadexport the observability work planned in ROADMAP.md extends and attaches it
type SystemSampler struct {
	Samples []SystemSample
}

var (
	_ sched.Recorder     = (*SystemSampler)(nil)
	_ sched.PassObserver = (*SystemSampler)(nil)
)

// JobStarted implements sched.Recorder (no-op).
func (s *SystemSampler) JobStarted(*sched.RunState, float64) {}

// JobFinished implements sched.Recorder (no-op).
func (s *SystemSampler) JobFinished(*sched.RunState, float64) {}

// PassEnd implements sched.PassObserver.
func (s *SystemSampler) PassEnd(now float64, queued, busy int) {
	s.Samples = append(s.Samples, SystemSample{T: now, Queued: queued, Busy: busy})
}

// MaxQueued returns the deepest observed backlog.
func (s *SystemSampler) MaxQueued() int {
	max := 0
	for _, x := range s.Samples {
		if x.Queued > max {
			max = x.Queued
		}
	}
	return max
}

// UtilizationSeries converts the samples to (time, busy/total) points.
func (s *SystemSampler) UtilizationSeries(total int) [][2]float64 {
	out := make([][2]float64, len(s.Samples))
	for i, x := range s.Samples {
		out[i] = [2]float64{x.T, float64(x.Busy) / float64(total)}
	}
	return out
}

// QueueSeries converts the samples to (time, queued) points.
func (s *SystemSampler) QueueSeries() [][2]float64 {
	out := make([][2]float64, len(s.Samples))
	for i, x := range s.Samples {
		out[i] = [2]float64{x.T, float64(x.Queued)}
	}
	return out
}
