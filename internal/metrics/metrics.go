// Package metrics collects per-job scheduling outcomes and derives the
// quantities the paper reports: bounded slowdown (BSLD) with penalized
// run times (eq. 6), wait times, reduced-job counts, and CPU energy under
// the two accounting modes of Section 5 — computational energy (idle
// processors dissipate nothing, "Eidle=0") and total energy with idle
// processors at low power ("Eidle=low").
//
// The collector has two modes. With retention on (NewCollector) it keeps
// one JobRecord per finished job, which the distribution and breakdown
// analyses need. With retention off (NewStreamingCollector) it
// folds every job into running aggregates as it finishes and holds no
// per-job state at all — the mode million-job replays use, where O(trace)
// live records would otherwise dominate the heap. Both modes accumulate
// the aggregates in completion order, so Results are bit-identical.
package metrics

import (
	"math"
	"sort"

	"repro/internal/dvfs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// JobRecord is the outcome of one job's passage through the system.
type JobRecord struct {
	Job   *workload.Job
	Start float64
	End   float64
	Wait  float64 // Start − Submit
	// PenalizedRuntime is the wall-clock execution time including any
	// frequency-reduction dilation (End − Start).
	PenalizedRuntime float64
	// BSLD is eq. (6): max((Wait+PenalizedRuntime)/max(Th, RunTime), 1),
	// with RunTime the job's execution time at the top frequency.
	BSLD float64
	// Energy is the job's CPU energy: Σ over phases procs·P(gear)·dur.
	Energy float64
	// FinalGear is the gear at completion; Reduced reports whether any
	// phase ran below the top gear.
	FinalGear dvfs.Gear
	Reduced   bool
	// AllocRuns is the number of contiguous processor runs of the job's
	// placement (1 = fully contiguous); depends on the resource
	// selection policy.
	AllocRuns int
}

// Collector implements sched.Recorder, aggregating jobs as they finish.
// It must be created with NewCollector or NewStreamingCollector.
type Collector struct {
	pm     *dvfs.PowerModel
	th     float64 // short-job threshold of the BSLD formula
	retain bool

	// Online aggregates, maintained in both modes in completion order.
	jobs        int
	bsldSum     float64
	waitSum     float64
	runsSum     float64
	maxWait     float64
	reducedJobs int
	compEnergy  float64

	records     []*JobRecord // retained mode only
	firstSubmit float64
	lastEnd     float64
	any         bool
}

var _ sched.Recorder = (*Collector)(nil)

// NewCollector returns a collector charging energy with pm and computing
// BSLD with short-job threshold th (600 s in the paper). It retains one
// JobRecord per finished job for the per-job analyses (Records,
// WaitSeries, percentiles, breakdowns).
func NewCollector(pm *dvfs.PowerModel, th float64) *Collector {
	return &Collector{pm: pm, th: th, retain: true}
}

// NewStreamingCollector returns a collector that folds jobs into the
// aggregate Results online and retains no per-job records: memory stays
// O(1) in trace length. Summarize and Window work exactly as in retained
// mode; Records returns nil and the record-based analyses report empty.
func NewStreamingCollector(pm *dvfs.PowerModel, th float64) *Collector {
	return &Collector{pm: pm, th: th}
}

// JobStarted implements sched.Recorder.
func (c *Collector) JobStarted(rs *sched.RunState, now float64) {
	if !c.any || rs.Job.Submit < c.firstSubmit {
		c.firstSubmit = rs.Job.Submit
	}
	c.any = true
}

// JobFinished implements sched.Recorder.
func (c *Collector) JobFinished(rs *sched.RunState, now float64) {
	j := rs.Job
	wait := rs.Start - j.Submit
	penalized := now - rs.Start
	bsld := BSLD(wait, penalized, j.EffectiveRuntime(), c.th)
	energy := 0.0
	for _, ph := range rs.Phases {
		energy += float64(j.Procs) * c.pm.Active(ph.Gear) * ph.Dur
	}
	c.jobs++
	c.bsldSum += bsld
	c.waitSum += wait
	c.runsSum += float64(len(rs.Alloc.Runs))
	if wait > c.maxWait {
		c.maxWait = wait
	}
	if rs.Reduced {
		c.reducedJobs++
	}
	c.compEnergy += energy
	if now > c.lastEnd {
		c.lastEnd = now
	}
	if !c.retain {
		return
	}
	c.records = append(c.records, &JobRecord{
		Job:              j,
		Start:            rs.Start,
		End:              now,
		Wait:             wait,
		PenalizedRuntime: penalized,
		BSLD:             bsld,
		Energy:           energy,
		FinalGear:        rs.Gear,
		Reduced:          rs.Reduced,
		AllocRuns:        len(rs.Alloc.Runs),
	})
}

// BSLD evaluates eq. (6) of the paper. runtime is the job's execution
// time at the top frequency (the denominator keeps the original runtime
// even when the numerator is penalized by frequency scaling).
func BSLD(wait, penalizedRuntime, runtime, th float64) float64 {
	denom := math.Max(th, runtime)
	if denom <= 0 {
		return 1
	}
	v := (wait + penalizedRuntime) / denom
	if v < 1 {
		return 1
	}
	return v
}

// Records returns the finished jobs in completion order. It is nil in
// streaming mode.
func (c *Collector) Records() []*JobRecord { return c.records }

// Window returns the observation interval [first submit, last completion].
func (c *Collector) Window() (start, end float64) { return c.firstSubmit, c.lastEnd }

// Results aggregates a run.
type Results struct {
	Jobs        int
	AvgBSLD     float64
	AvgWait     float64 // seconds
	MaxWait     float64
	ReducedJobs int // jobs that ran any phase below the top gear (Fig. 4)

	// CompEnergy is Σ job energies: the Eidle=0 accounting.
	CompEnergy float64
	// IdleEnergy charges idle processors P_idle over the window.
	IdleEnergy float64
	// TotalEnergyLow is CompEnergy + IdleEnergy: the Eidle=low accounting.
	TotalEnergyLow float64

	Window      float64 // last completion − first submit
	Utilization float64 // busy CPU·s ÷ (CPUs·Window)
	// MeanAllocRuns is the average placement contiguity (1 = every job
	// fully contiguous); a property of the resource selection policy.
	MeanAllocRuns float64
}

// Summarize folds the collector's aggregates into Results.
// idleCPUSeconds and busyCPUSeconds come from the cluster's occupancy
// integral; cpus is the machine size. It works identically in retained
// and streaming mode: the sums are accumulated online in completion
// order, which is the same order the seed implementation folded the
// record list in, so the floating-point results are bit-identical.
func (c *Collector) Summarize(idleCPUSeconds, busyCPUSeconds float64, cpus int) Results {
	r := Results{Jobs: c.jobs}
	if r.Jobs == 0 {
		return r
	}
	n := float64(r.Jobs)
	r.AvgBSLD = c.bsldSum / n
	r.AvgWait = c.waitSum / n
	r.MaxWait = c.maxWait
	r.ReducedJobs = c.reducedJobs
	r.CompEnergy = c.compEnergy
	r.MeanAllocRuns = c.runsSum / n
	r.IdleEnergy = idleCPUSeconds * c.pm.Idle()
	r.TotalEnergyLow = r.CompEnergy + r.IdleEnergy
	r.Window = c.lastEnd - c.firstSubmit
	if r.Window > 0 && cpus > 0 {
		r.Utilization = busyCPUSeconds / (float64(cpus) * r.Window)
	}
	return r
}

// WaitPoint is one sample of the wait-time series of Figure 6.
type WaitPoint struct {
	Submit float64
	Wait   float64
}

// WaitSeries returns (submit, wait) pairs ordered by submit time,
// reproducing the per-job wait traces of Figure 6. It is empty in
// streaming mode.
func (c *Collector) WaitSeries() []WaitPoint {
	pts := make([]WaitPoint, len(c.records))
	for i, rec := range c.records {
		pts[i] = WaitPoint{Submit: rec.Job.Submit, Wait: rec.Wait}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].Submit < pts[b].Submit })
	return pts
}
