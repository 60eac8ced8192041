package nodepower

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// BenchmarkMeterEvents pins the O(1) cost of the online meter's event
// handlers — the per-start/finish/regear work every metered simulation
// pays. A regression to interval-walking accounting would show up as a
// jump proportional to the live-job count, which stays fixed here.
func BenchmarkMeterEvents(b *testing.B) {
	pm := dvfs.PaperPowerModel()
	tr := NewTracker(64)
	m := NewMeter(64, pm)
	gears := pm.Gears
	rs := &sched.RunState{
		Job:   &workload.Job{ID: 1, Procs: 4},
		Gear:  gears.Top(),
		Alloc: cluster.AllocOf(0, 1, 2, 3),
	}
	b.ReportAllocs()
	now := 0.0
	for i := 0; i < b.N; i++ {
		now += 1
		tr.JobStarted(rs, now)
		m.JobStarted(rs, now)
		now += 1
		old := rs.Gear
		rs.Gear = gears[len(gears)-1]
		m.JobRegeared(rs, old, now)
		now += 1
		tr.JobFinished(rs, now)
		m.JobFinished(rs, now)
		rs.Gear = gears.Top()
	}
	if m.Draw() < 0 {
		b.Fatal("negative draw")
	}
	b.ReportMetric(float64(3*b.N)/b.Elapsed().Seconds(), "events/s")
}
