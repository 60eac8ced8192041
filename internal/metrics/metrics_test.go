package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestBSLDFormula(t *testing.T) {
	cases := []struct {
		wait, pen, rt, th, want float64
	}{
		{0, 3600, 3600, 600, 1},             // no wait, no penalty
		{3600, 3600, 3600, 600, 2},          // wait equal to runtime
		{0, 6975, 3600, 600, 6975.0 / 3600}, // dilation penalty with original denominator
		{0, 100, 100, 600, 1},               // short job clamp
		{500, 100, 100, 600, 1},             // (500+100)/600 = 1
		{501, 100, 100, 600, 601.0 / 600},
		{0, 0, 0, 600, 1}, // degenerate
	}
	for _, c := range cases {
		if got := BSLD(c.wait, c.pen, c.rt, c.th); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("BSLD(%v,%v,%v,%v) = %v, want %v", c.wait, c.pen, c.rt, c.th, got, c.want)
		}
	}
}

// Build a synthetic RunState the way the scheduler would.
func finishedState(j *workload.Job, start float64, phases []sched.Phase) (*sched.RunState, float64) {
	end := start
	for _, p := range phases {
		end += p.Dur
	}
	return &sched.RunState{
		Job: j, Start: start, Gear: phases[len(phases)-1].Gear,
		Phases: phases, Reduced: anyReduced(phases),
	}, end
}

func anyReduced(phases []sched.Phase) bool {
	top := dvfs.PaperGearSet().Top()
	for _, p := range phases {
		if p.Gear != top {
			return true
		}
	}
	return false
}

// A collector that saw no jobs must summarize to all-zero Results in
// both modes, and a single job starting and ending at its submit instant
// (zero-length window) must not divide by the zero window.
func TestCollectorZeroLengthWindow(t *testing.T) {
	pm := dvfs.PaperPowerModel()
	for _, c := range []*Collector{NewCollector(pm, 600), NewStreamingCollector(pm, 600)} {
		if r := c.Summarize(0, 0, 128); r != (Results{}) {
			t.Errorf("empty collector Results = %+v, want zero", r)
		}
		j := &workload.Job{ID: 1, Submit: 50, Runtime: 0, Procs: 2, ReqTime: 0, Beta: -1}
		rs := &sched.RunState{Job: j, Start: 50, Gear: pm.Gears.Top()}
		c.JobStarted(rs, 50)
		c.JobFinished(rs, 50)
		r := c.Summarize(0, 0, 128)
		if r.Jobs != 1 {
			t.Fatalf("Jobs = %d, want 1", r.Jobs)
		}
		if r.Window != 0 {
			t.Errorf("Window = %v, want 0", r.Window)
		}
		if r.Utilization != 0 {
			t.Errorf("Utilization = %v, want 0 (undefined over a zero window)", r.Utilization)
		}
		if r.AvgBSLD != 1 || r.AvgWait != 0 {
			t.Errorf("AvgBSLD/AvgWait = %v/%v, want 1/0", r.AvgBSLD, r.AvgWait)
		}
		if math.IsNaN(r.MeanAllocRuns) {
			t.Error("MeanAllocRuns is NaN")
		}
	}
}

// th=0 removes the short-job clamp's floor: a zero-runtime job then has a
// zero denominator, which BSLD defines as 1 (degenerate case), and a
// positive-runtime job falls back to the plain slowdown.
func TestCollectorZeroThresholdZeroRuntime(t *testing.T) {
	pm := dvfs.PaperPowerModel()
	top := pm.Gears.Top()
	for _, c := range []*Collector{NewCollector(pm, 0), NewStreamingCollector(pm, 0)} {
		zero := &workload.Job{ID: 1, Submit: 0, Runtime: 0, Procs: 1, ReqTime: 0, Beta: -1}
		rs := &sched.RunState{Job: zero, Start: 10, Gear: top}
		c.JobStarted(rs, 10)
		c.JobFinished(rs, 10) // waited 10 s, ran 0 s, denominator max(0,0)=0
		pos := &workload.Job{ID: 2, Submit: 0, Runtime: 100, Procs: 1, ReqTime: 100, Beta: -1}
		rs2, end := finishedState(pos, 100, []sched.Phase{{Gear: top, Dur: 100}})
		c.JobStarted(rs2, 100)
		c.JobFinished(rs2, end) // (100+100)/100 = 2, unclamped at th=0
		r := c.Summarize(0, 0, 4)
		if want := (1.0 + 2.0) / 2; math.Abs(r.AvgBSLD-want) > 1e-12 {
			t.Errorf("AvgBSLD = %v, want %v", r.AvgBSLD, want)
		}
	}
}

// Streaming and retained collectors observing the same completion stream
// must produce identical Results — bit for bit, since both fold in
// completion order — while only the retained one holds records.
func TestStreamingMatchesRetainedOnRandomTrace(t *testing.T) {
	pm := dvfs.PaperPowerModel()
	gears := pm.Gears
	rng := func(seed, mod int) int { return (seed*2654435761 + 12345) % mod }
	ret := NewCollector(pm, 600)
	str := NewStreamingCollector(pm, 600)
	now := 0.0
	for i := 1; i <= 500; i++ {
		submit := now
		wait := float64(rng(i, 5000))
		run := float64(1 + rng(i*7, 20000))
		g := gears[rng(i*13, len(gears))]
		j := &workload.Job{ID: i, Submit: submit, Runtime: run, Procs: 1 + rng(i*3, 64), ReqTime: run, Beta: -1}
		rs, end := finishedState(j, submit+wait, []sched.Phase{{Gear: g, Dur: run}})
		rs.Alloc = cluster.AllocOf(0, 2, 3) // two runs
		for _, c := range []*Collector{ret, str} {
			c.JobStarted(rs, submit+wait)
			c.JobFinished(rs, end)
		}
		now += float64(rng(i*31, 300))
	}
	if ret.Summarize(1e9, 5e9, 4096) != str.Summarize(1e9, 5e9, 4096) {
		t.Errorf("streaming Results differ from retained:\n%+v\n%+v",
			str.Summarize(1e9, 5e9, 4096), ret.Summarize(1e9, 5e9, 4096))
	}
	if got := len(ret.Records()); got != 500 {
		t.Errorf("retained records = %d, want 500", got)
	}
	if str.Records() != nil {
		t.Errorf("streaming collector retained %d records", len(str.Records()))
	}
	if len(str.WaitSeries()) != 0 {
		t.Error("streaming WaitSeries not empty")
	}
	rs, re := ret.Window()
	ss, se := str.Window()
	if rs != ss || re != se {
		t.Errorf("windows differ: [%v,%v] vs [%v,%v]", rs, re, ss, se)
	}
}

func TestCollectorSingleJobEnergyAndBSLD(t *testing.T) {
	pm := dvfs.PaperPowerModel()
	c := NewCollector(pm, 600)
	top := pm.Gears.Top()
	j := &workload.Job{ID: 1, Submit: 0, Runtime: 3600, Procs: 4, ReqTime: 3600, Beta: -1}
	rs, end := finishedState(j, 100, []sched.Phase{{Gear: top, Dur: 3600}})
	c.JobStarted(rs, 100)
	c.JobFinished(rs, end)

	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	rec := recs[0]
	if rec.Wait != 100 || rec.PenalizedRuntime != 3600 {
		t.Errorf("wait/pen = %v/%v", rec.Wait, rec.PenalizedRuntime)
	}
	wantE := 4 * pm.Active(top) * 3600
	if math.Abs(rec.Energy-wantE) > 1e-9 {
		t.Errorf("energy = %v, want %v", rec.Energy, wantE)
	}
	wantB := (100.0 + 3600.0) / 3600.0
	if math.Abs(rec.BSLD-wantB) > 1e-12 {
		t.Errorf("BSLD = %v, want %v", rec.BSLD, wantB)
	}
}

func TestCollectorReducedJobUsesOriginalRuntimeDenominator(t *testing.T) {
	pm := dvfs.PaperPowerModel()
	c := NewCollector(pm, 600)
	low := pm.Gears.Lowest()
	// 3600 s of work dilated by 1.9375 at the lowest gear.
	j := &workload.Job{ID: 1, Submit: 0, Runtime: 3600, Procs: 2, ReqTime: 3600, Beta: -1}
	rs, end := finishedState(j, 0, []sched.Phase{{Gear: low, Dur: 3600 * 1.9375}})
	c.JobStarted(rs, 0)
	c.JobFinished(rs, end)
	rec := c.Records()[0]
	// Eq. (6): penalized runtime in the numerator, original in the
	// denominator -> BSLD = 1.9375 even with zero wait.
	if math.Abs(rec.BSLD-1.9375) > 1e-12 {
		t.Errorf("BSLD = %v, want 1.9375", rec.BSLD)
	}
	if !rec.Reduced {
		t.Error("record not marked reduced")
	}
}

func TestCollectorMultiPhaseEnergy(t *testing.T) {
	pm := dvfs.PaperPowerModel()
	c := NewCollector(pm, 600)
	low, top := pm.Gears.Lowest(), pm.Gears.Top()
	j := &workload.Job{ID: 1, Submit: 0, Runtime: 1000, Procs: 3, ReqTime: 1000, Beta: -1}
	rs, end := finishedState(j, 0, []sched.Phase{
		{Gear: low, Dur: 968.75},
		{Gear: top, Dur: 500},
	})
	c.JobStarted(rs, 0)
	c.JobFinished(rs, end)
	want := 3 * (pm.Active(low)*968.75 + pm.Active(top)*500)
	if got := c.Records()[0].Energy; math.Abs(got-want) > 1e-9 {
		t.Errorf("multi-phase energy = %v, want %v", got, want)
	}
}

func TestSummarize(t *testing.T) {
	pm := dvfs.PaperPowerModel()
	c := NewCollector(pm, 600)
	top := pm.Gears.Top()
	low := pm.Gears.Lowest()
	jobs := []struct {
		j      *workload.Job
		start  float64
		phases []sched.Phase
	}{
		{&workload.Job{ID: 1, Submit: 0, Runtime: 1000, Procs: 2, ReqTime: 1000, Beta: -1}, 0,
			[]sched.Phase{{Gear: top, Dur: 1000}}},
		{&workload.Job{ID: 2, Submit: 100, Runtime: 1000, Procs: 2, ReqTime: 1000, Beta: -1}, 600,
			[]sched.Phase{{Gear: low, Dur: 1937.5}}},
	}
	for _, x := range jobs {
		rs, end := finishedState(x.j, x.start, x.phases)
		c.JobStarted(rs, x.start)
		c.JobFinished(rs, end)
	}
	res := c.Summarize(5000, 2*1000+2*1937.5, 4)
	if res.Jobs != 2 {
		t.Fatalf("Jobs = %d", res.Jobs)
	}
	if res.ReducedJobs != 1 {
		t.Errorf("ReducedJobs = %d, want 1", res.ReducedJobs)
	}
	// Wait: job1 0, job2 500 -> avg 250, max 500.
	if res.AvgWait != 250 || res.MaxWait != 500 {
		t.Errorf("wait = avg %v max %v", res.AvgWait, res.MaxWait)
	}
	// BSLD: job1 = 1; job2 = (500+1937.5)/1000 = 2.4375.
	if math.Abs(res.AvgBSLD-(1+2.4375)/2) > 1e-12 {
		t.Errorf("AvgBSLD = %v", res.AvgBSLD)
	}
	wantComp := 2*pm.Active(top)*1000 + 2*pm.Active(low)*1937.5
	if math.Abs(res.CompEnergy-wantComp) > 1e-9 {
		t.Errorf("CompEnergy = %v, want %v", res.CompEnergy, wantComp)
	}
	wantIdle := 5000 * pm.Idle()
	if math.Abs(res.IdleEnergy-wantIdle) > 1e-9 {
		t.Errorf("IdleEnergy = %v, want %v", res.IdleEnergy, wantIdle)
	}
	if math.Abs(res.TotalEnergyLow-(wantComp+wantIdle)) > 1e-9 {
		t.Errorf("TotalEnergyLow = %v", res.TotalEnergyLow)
	}
	// Window: first submit 0 to last end 600+1937.5.
	if math.Abs(res.Window-2537.5) > 1e-9 {
		t.Errorf("Window = %v, want 2537.5", res.Window)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	c := NewCollector(dvfs.PaperPowerModel(), 600)
	res := c.Summarize(0, 0, 4)
	if res.Jobs != 0 || res.AvgBSLD != 0 {
		t.Error("empty summary should be zero")
	}
}

func TestWaitSeriesSorted(t *testing.T) {
	pm := dvfs.PaperPowerModel()
	c := NewCollector(pm, 600)
	top := pm.Gears.Top()
	// Finish jobs out of submit order.
	for _, sub := range []float64{300, 100, 200} {
		j := &workload.Job{ID: int(sub), Submit: sub, Runtime: 10, Procs: 1, ReqTime: 10, Beta: -1}
		rs, end := finishedState(j, sub+5, []sched.Phase{{Gear: top, Dur: 10}})
		c.JobStarted(rs, sub+5)
		c.JobFinished(rs, end)
	}
	pts := c.WaitSeries()
	if len(pts) != 3 {
		t.Fatalf("series length = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Submit < pts[i-1].Submit {
			t.Fatal("series not sorted by submit")
		}
	}
	if pts[0].Wait != 5 {
		t.Errorf("wait = %v, want 5", pts[0].Wait)
	}
}

// Property: BSLD >= 1 and monotone in wait and penalized runtime.
func TestQuickBSLDProperties(t *testing.T) {
	f := func(w, p, extra uint16, rt uint16) bool {
		wait, pen := float64(w), float64(p)
		run := float64(rt)
		a := BSLD(wait, pen, run, 600)
		b := BSLD(wait+float64(extra), pen, run, 600)
		c := BSLD(wait, pen+float64(extra), run, 600)
		return a >= 1 && b >= a && c >= a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
