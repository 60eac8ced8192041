package metrics

import (
	"errors"
	"sort"

	"repro/internal/stats"
)

// ErrStreaming is returned by the per-job analyses (percentiles,
// breakdowns, fairness) when the collector ran in streaming mode and
// therefore retained no records. Callers that need these analyses must
// build the collector with NewCollector (scenario.Spec.KeepCollector).
// Before this sentinel existed the analyses silently returned all-zero
// results on streaming collectors.
var ErrStreaming = errors.New("metrics: per-job analysis needs a retaining collector (scenario.Spec.KeepCollector); this collector streams and keeps no records")

// Percentiles of the wait and BSLD distributions; mean values hide the
// tail pain that Figure 6 of the paper visualizes, so the analysis tools
// report these alongside.
type Percentiles struct {
	P50, P90, P95, P99, Max float64
}

// percentilesOf computes the standard percentile set of a sample.
func percentilesOf(xs []float64) Percentiles {
	if len(xs) == 0 {
		return Percentiles{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	at := func(q float64) float64 { return stats.Quantile(sorted, q) }
	return Percentiles{
		P50: at(0.50), P90: at(0.90), P95: at(0.95), P99: at(0.99),
		Max: sorted[len(sorted)-1],
	}
}

// WaitPercentiles returns the distribution of job wait times. It fails
// with ErrStreaming when the collector retained no records.
func (c *Collector) WaitPercentiles() (Percentiles, error) {
	if !c.retain {
		return Percentiles{}, ErrStreaming
	}
	xs := make([]float64, len(c.records))
	for i, r := range c.records {
		xs[i] = r.Wait
	}
	return percentilesOf(xs), nil
}

// BSLDPercentiles returns the distribution of job bounded slowdowns. It
// fails with ErrStreaming when the collector retained no records.
func (c *Collector) BSLDPercentiles() (Percentiles, error) {
	if !c.retain {
		return Percentiles{}, ErrStreaming
	}
	xs := make([]float64, len(c.records))
	for i, r := range c.records {
		xs[i] = r.BSLD
	}
	return percentilesOf(xs), nil
}

// EnergyDelayProduct returns Σ energy × avg BSLD — the standard combined
// figure of merit for power-management policies: a policy that saves
// energy by destroying slowdown scores worse than one that balances both.
func (r Results) EnergyDelayProduct() float64 {
	return r.CompEnergy * r.AvgBSLD
}

// JobClass partitions jobs the way the paper discusses them: by runtime
// against the 600 s short-job threshold, and by degree of parallelism.
type JobClass int

const (
	// ShortJobs ran under the BSLD clamp threshold.
	ShortJobs JobClass = iota
	// LongSerial are 1-processor jobs above the threshold.
	LongSerial
	// LongNarrow use at most 1/16 of the machine.
	LongNarrow
	// LongWide use more than 1/16 of the machine.
	LongWide
)

// String names the class.
func (c JobClass) String() string {
	switch c {
	case ShortJobs:
		return "short"
	case LongSerial:
		return "long-serial"
	case LongNarrow:
		return "long-narrow"
	case LongWide:
		return "long-wide"
	}
	return "unknown"
}

// Classes lists the job classes in presentation order.
func Classes() []JobClass {
	return []JobClass{ShortJobs, LongSerial, LongNarrow, LongWide}
}

// ClassStats summarizes the jobs of one class.
type ClassStats struct {
	Jobs        int
	AvgBSLD     float64
	AvgWait     float64
	Energy      float64
	EnergyShare float64 // fraction of total computational energy
	Reduced     int
}

// classify assigns a record to a class given machine size.
func classify(rec *JobRecord, cpus int, shortTh float64) JobClass {
	if rec.Job.EffectiveRuntime() < shortTh {
		return ShortJobs
	}
	switch {
	case rec.Job.Procs == 1:
		return LongSerial
	case rec.Job.Procs*16 <= cpus:
		return LongNarrow
	default:
		return LongWide
	}
}

// Breakdown aggregates the records per job class for a machine of the
// given size. It explains *where* the energy savings come from: the
// paper's workload narratives (Thunder's short jobs, Atlas's wide jobs)
// become visible here. It fails with ErrStreaming when the collector
// retained no records.
func (c *Collector) Breakdown(cpus int) (map[JobClass]ClassStats, error) {
	if !c.retain {
		return nil, ErrStreaming
	}
	out := make(map[JobClass]ClassStats)
	total := 0.0
	for _, rec := range c.records {
		total += rec.Energy
	}
	sums := make(map[JobClass]*ClassStats)
	for _, rec := range c.records {
		cl := classify(rec, cpus, c.th)
		s := sums[cl]
		if s == nil {
			s = &ClassStats{}
			sums[cl] = s
		}
		s.Jobs++
		s.AvgBSLD += rec.BSLD
		s.AvgWait += rec.Wait
		s.Energy += rec.Energy
		if rec.Reduced {
			s.Reduced++
		}
	}
	for cl, s := range sums {
		n := float64(s.Jobs)
		s.AvgBSLD /= n
		s.AvgWait /= n
		if total > 0 {
			s.EnergyShare = s.Energy / total
		}
		out[cl] = *s
	}
	return out, nil
}
