package nodepower

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/sched"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// defaultBeta mirrors scenario.DefaultBeta; importing it from an
// in-package test would close an import cycle now that the scenario
// compiler builds on altpolicy and nodepower.
const defaultBeta = 0.5

func record(t *Tracker, ids []int, procs, start, end float64) {
	rs := &sched.RunState{
		Job:   &workload.Job{ID: 1, Procs: int(procs)},
		Alloc: cluster.AllocOf(ids...),
	}
	t.JobStarted(rs, start)
	t.JobFinished(rs, end)
}

// Regression for the open-interval bug: a job still running at the last
// observed event used to be left open in the busy table, so its whole
// execution was charged as an idle gap. Evaluate must treat the
// processor as busy through the window end instead.
func TestEvaluateClosesOpenIntervalsAtWindowEnd(t *testing.T) {
	pm := dvfs.PaperPowerModel()
	tr := NewTracker(2)
	// Processor 0: a normal job [0, 10), then idle to the end.
	record(tr, []int{0}, 1, 0, 10)
	// Processor 1: starts at 20 and NEVER finishes; the last event of the
	// run is processor 0's completion... then the started-but-unfinished
	// job pushes t.end to 20 via its JobStarted callback.
	open := &sched.RunState{
		Job:   &workload.Job{ID: 2, Procs: 1},
		Alloc: cluster.AllocOf(1),
	}
	tr.JobStarted(open, 20)

	// Busy accounting must include the open interval through the end.
	if got, want := tr.BusyCPUSeconds(), 10.0; got != want {
		t.Errorf("BusyCPUSeconds = %v, want %v (open interval is zero-length at end=20)", got, want)
	}

	rep, err := tr.Evaluate(Policy{IdleOffDelay: 1e9}, pm, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Idle time: proc 0 idles [10, 20) final; proc 1 idles [0, 20) before
	// its open interval — and nothing after 20, because it is busy at the
	// window end. The seed implementation charged proc 1 nothing before
	// 20 (no closed spans) and instead idled it over the whole window.
	wantIdle := (20.0 - 10.0) + 20.0
	if got := rep.IdleCPUSeconds; math.Abs(got-wantIdle) > 1e-9 {
		t.Errorf("IdleCPUSeconds = %v, want %v", got, wantIdle)
	}

	// With a longer run the open interval accrues busy time too.
	record(tr, []int{0}, 1, 30, 40) // pushes end to 40
	if got, want := tr.BusyCPUSeconds(), 10.0+10.0+(40.0-20.0); got != want {
		t.Errorf("BusyCPUSeconds = %v, want %v (open interval [20,40])", got, want)
	}
	rep, err = tr.Evaluate(Policy{IdleOffDelay: 1e9}, pm, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Proc 0: [10,30) idle plus nothing after 40 (final gap zero-length);
	// proc 1: [0,20) idle, busy through the end.
	wantIdle = 20.0 + 20.0
	if got := rep.IdleCPUSeconds; math.Abs(got-wantIdle) > 1e-9 {
		t.Errorf("after second job: IdleCPUSeconds = %v, want %v", got, wantIdle)
	}
}

func TestIdleGapsSingleProcessor(t *testing.T) {
	tr := NewTracker(1)
	record(tr, []int{0}, 1, 10, 20)
	record(tr, []int{0}, 1, 50, 60)
	gaps := tr.idleGaps(0, 0)
	want := []gap{{0, 10, false}, {20, 50, false}}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %+v", gaps)
	}
	for i, g := range want {
		if gaps[i] != g {
			t.Errorf("gap %d = %+v, want %+v", i, gaps[i], g)
		}
	}
}

func TestIdleGapsTrailing(t *testing.T) {
	tr := NewTracker(2)
	record(tr, []int{0}, 1, 0, 10)
	record(tr, []int{1}, 1, 0, 100)
	gaps := tr.idleGaps(0, 0)
	// Processor 0 idles from 10 to the last event (100), final gap.
	if len(gaps) != 1 || gaps[0] != (gap{10, 100, true}) {
		t.Errorf("gaps = %+v", gaps)
	}
}

func TestEvaluateShortGapStaysOn(t *testing.T) {
	pm := dvfs.PaperPowerModel()
	tr := NewTracker(1)
	record(tr, []int{0}, 1, 0, 10)
	record(tr, []int{0}, 1, 40, 50)
	rep, err := tr.Evaluate(Policy{IdleOffDelay: 60, WakeEnergySeconds: 100}, pm, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The 30 s gap is below the delay: full idle power, no shutdown.
	if rep.Shutdowns != 0 {
		t.Errorf("shutdowns = %d, want 0", rep.Shutdowns)
	}
	if math.Abs(rep.IdleEnergy-30*pm.Idle()) > 1e-9 {
		t.Errorf("idle energy = %v, want %v", rep.IdleEnergy, 30*pm.Idle())
	}
}

func TestEvaluateLongGapPowersDown(t *testing.T) {
	pm := dvfs.PaperPowerModel()
	tr := NewTracker(1)
	record(tr, []int{0}, 1, 0, 10)
	record(tr, []int{0}, 1, 1000, 1100)
	pol := Policy{IdleOffDelay: 90, WakeEnergySeconds: 100}
	rep, err := tr.Evaluate(pol, pm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shutdowns != 1 {
		t.Fatalf("shutdowns = %d, want 1", rep.Shutdowns)
	}
	// Gap [10,1000): 90 s on at idle power, 900 s off (free), one wake.
	wantIdle := 90 * pm.Idle()
	wantWake := 100 * pm.Active(pm.Gears.Top())
	if math.Abs(rep.IdleEnergy-wantIdle) > 1e-9 {
		t.Errorf("idle energy = %v, want %v", rep.IdleEnergy, wantIdle)
	}
	if math.Abs(rep.WakeEnergy-wantWake) > 1e-9 {
		t.Errorf("wake energy = %v, want %v", rep.WakeEnergy, wantWake)
	}
	if rep.OffEnergy != 0 {
		t.Errorf("off energy = %v, want 0 at OffPowerFraction 0", rep.OffEnergy)
	}
	if math.Abs(rep.OffCPUSeconds-900) > 1e-9 {
		t.Errorf("off seconds = %v, want 900", rep.OffCPUSeconds)
	}
}

func TestEvaluateFinalGapNoWakeCharge(t *testing.T) {
	pm := dvfs.PaperPowerModel()
	tr := NewTracker(2)
	record(tr, []int{0}, 1, 0, 10)
	record(tr, []int{1}, 1, 0, 5000)
	rep, err := tr.Evaluate(Policy{IdleOffDelay: 60}, pm, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Processor 0's only gap is final: shutdown but no wake energy.
	if rep.Shutdowns != 1 || rep.WakeEnergy != 0 {
		t.Errorf("shutdowns=%d wake=%v, want 1 and 0", rep.Shutdowns, rep.WakeEnergy)
	}
}

func TestEvaluateResidualOffPower(t *testing.T) {
	pm := dvfs.PaperPowerModel()
	tr := NewTracker(1)
	record(tr, []int{0}, 1, 0, 10)
	record(tr, []int{0}, 1, 1010, 1020)
	rep, err := tr.Evaluate(Policy{IdleOffDelay: 0, OffPowerFraction: 0.1}, pm, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1000 * pm.Idle() * 0.1
	if math.Abs(rep.OffEnergy-want) > 1e-9 {
		t.Errorf("off energy = %v, want %v", rep.OffEnergy, want)
	}
}

func TestEvaluateRejectsBadPolicy(t *testing.T) {
	tr := NewTracker(1)
	pm := dvfs.PaperPowerModel()
	bad := []Policy{
		{IdleOffDelay: -1},
		{WakeEnergySeconds: -1},
		{OffPowerFraction: 2},
	}
	for i, p := range bad {
		if _, err := tr.Evaluate(p, pm, 0); err == nil {
			t.Errorf("policy %d accepted", i)
		}
	}
}

// Integration: tracking a real simulation reproduces the cluster's busy
// integral exactly, and power-down always saves idle-side energy compared
// to always-on idle power.
func TestTrackerAgainstRealSimulation(t *testing.T) {
	m := wgen.CTC()
	m.Jobs = 400
	trace, err := wgen.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	pm := dvfs.PaperPowerModel()
	gears := pm.Gears
	tracker := NewTracker(m.CPUs)
	sys, err := sched.New(sched.Config{
		CPUs: m.CPUs, Gears: gears,
		TimeModel: dvfs.NewTimeModel(defaultBeta, gears),
		Policy:    sched.FixedGear{Gear: gears.Top()},
		Variant:   sched.EASY,
		Recorder:  tracker,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Simulate(trace); err != nil {
		t.Fatal(err)
	}
	end := tracker.end
	busyCluster := sys.Cluster().BusyCPUSeconds(end)
	if math.Abs(tracker.BusyCPUSeconds()-busyCluster) > 1e-6*busyCluster {
		t.Errorf("tracker busy %v != cluster busy %v", tracker.BusyCPUSeconds(), busyCluster)
	}
	windowStart := trace.Jobs[0].Submit
	alwaysOnIdle := sys.Cluster().IdleCPUSeconds(windowStart, end) * pm.Idle()
	rep, err := tracker.Evaluate(DefaultPolicy(), pm, windowStart)
	if err != nil {
		t.Fatal(err)
	}
	// Idle+off seconds must partition the always-on idle time.
	if got := rep.IdleCPUSeconds + rep.OffCPUSeconds; math.Abs(got-alwaysOnIdle/pm.Idle()) > 1e-6*got {
		t.Errorf("idle partition %v != %v", got, alwaysOnIdle/pm.Idle())
	}
	if rep.TotalIdleSideEnergy() >= alwaysOnIdle {
		t.Errorf("power-down energy %v not below always-on %v",
			rep.TotalIdleSideEnergy(), alwaysOnIdle)
	}
}

// Property-style: for any delay, the idle+off partition conserves total
// idle time and energies stay non-negative.
func TestEvaluateConservation(t *testing.T) {
	m := wgen.SDSCBlue()
	m.Jobs = 200
	trace, _ := wgen.Generate(m)
	pm := dvfs.PaperPowerModel()
	tracker := NewTracker(m.CPUs)
	sys, _ := sched.New(sched.Config{
		CPUs: m.CPUs, Gears: pm.Gears,
		TimeModel: dvfs.NewTimeModel(defaultBeta, pm.Gears),
		Policy:    sched.FixedGear{Gear: pm.Gears.Top()},
		Variant:   sched.EASY,
		Recorder:  tracker,
	})
	if err := sys.Simulate(trace); err != nil {
		t.Fatal(err)
	}
	var prevTotal float64
	first := true
	for _, delay := range []float64{0, 30, 300, 3000, 1e9} {
		rep, err := tracker.Evaluate(Policy{IdleOffDelay: delay, WakeEnergySeconds: 50}, pm, trace.Jobs[0].Submit)
		if err != nil {
			t.Fatal(err)
		}
		if rep.IdleEnergy < 0 || rep.OffEnergy < 0 || rep.WakeEnergy < 0 {
			t.Fatalf("negative energy at delay %v: %+v", delay, rep)
		}
		total := rep.IdleCPUSeconds + rep.OffCPUSeconds
		if first {
			prevTotal = total
			first = false
		}
		if math.Abs(total-prevTotal) > 1e-6*prevTotal {
			t.Errorf("idle partition changed with delay %v: %v vs %v", delay, total, prevTotal)
		}
	}
}
