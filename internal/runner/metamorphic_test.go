package runner

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Metamorphic tests: each runs the scheduler twice on related inputs and
// checks a relation between the two outcomes that must hold for any
// correct implementation, so they need no second implementation to
// compare against.

// metaVariants are the scheduling setups every relation is checked under.
var metaVariants = []struct {
	name    string
	variant sched.Variant
	order   sched.Order
	resv    int
}{
	{"easy", sched.EASY, sched.FCFSOrder, 0},
	{"easy-sjf", sched.EASY, sched.SJFOrder, 0},
	{"flexible-4", sched.EASY, sched.FCFSOrder, 4},
	{"conservative", sched.Conservative, sched.FCFSOrder, 0},
}

// schedule maps job ID to its record in a run that kept its collector.
func schedule(t *testing.T, out Outcome) map[int]*metrics.JobRecord {
	t.Helper()
	recs := map[int]*metrics.JobRecord{}
	for _, r := range out.Collector.Records() {
		recs[r.Job.ID] = r
	}
	return recs
}

func mustRun(t *testing.T, spec Spec) Outcome {
	t.Helper()
	spec.KeepCollector = true
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A BSLD threshold of 1 can never be met — eq. (2) is bounded below by 1
// and a reduced gear must stay strictly under the threshold — so the
// policy must reproduce the no-DVFS baseline schedule exactly: every job
// at the top gear with the same start and end.
func TestUnsatisfiableThresholdReproducesBaseline(t *testing.T) {
	tr := smallTrace(t)
	for _, v := range metaVariants {
		t.Run(v.name, func(t *testing.T) {
			spec := Spec{Trace: tr, Variant: v.variant, Order: v.order, Reservations: v.resv}
			base := mustRun(t, spec)
			spec.Policy = bsldPolicy(t, 1, core.NoWQLimit)
			pol := mustRun(t, spec)
			if pol.Results != base.Results {
				t.Fatalf("Results differ:\npolicy   %+v\nbaseline %+v", pol.Results, base.Results)
			}
			want := schedule(t, base)
			for id, r := range schedule(t, pol) {
				w := want[id]
				if r.Start != w.Start || r.End != w.End || r.Reduced {
					t.Fatalf("job %d ran [%v, %v] reduced=%v, baseline [%v, %v]",
						id, r.Start, r.End, r.Reduced, w.Start, w.End)
				}
			}
		})
	}
}

// dyadicGears has frequency ratios to the top gear of 2, 1.25 and 1, so
// under β = 1/2 every dilation coefficient (1.5, 1.125, 1) is a short
// dyadic fraction: integer submit, run and requested times keep every
// event time on a 1/8 grid, where floating-point sums are exact.
var dyadicGears = dvfs.GearSet{
	{Freq: 1.25, Voltage: 1.0},
	{Freq: 2.0, Voltage: 1.2},
	{Freq: 2.5, Voltage: 1.4},
}

// integerTrace rounds the trace's times to whole seconds.
func integerTrace(tr *workload.Trace) *workload.Trace {
	out := &workload.Trace{Name: tr.Name + "-int", CPUs: tr.CPUs}
	for _, j := range tr.Jobs {
		c := *j
		c.Submit = math.Round(j.Submit)
		c.Runtime = math.Round(j.Runtime)
		c.ReqTime = math.Max(1, math.Round(j.ReqTime))
		out.Jobs = append(out.Jobs, &c)
	}
	return out
}

// Shifting every arrival by a power-of-two constant shifts every start and
// end by exactly that constant and leaves every per-job BSLD and energy —
// and so the Results — unchanged. The run uses the BSLD policy on dyadic
// gears with integer times, so the relation holds bit for bit.
func TestShiftedArrivalsShiftSchedule(t *testing.T) {
	const shift = 1 << 20
	tr := integerTrace(smallTrace(t))
	shifted := &workload.Trace{Name: tr.Name + "-shifted", CPUs: tr.CPUs}
	for _, j := range tr.Jobs {
		c := *j
		c.Submit += shift
		shifted.Jobs = append(shifted.Jobs, &c)
	}
	tm := dvfs.NewTimeModel(0.5, dyadicGears)
	for _, v := range metaVariants {
		t.Run(v.name, func(t *testing.T) {
			run := func(tr *workload.Trace) Outcome {
				pol, err := core.NewPolicy(core.Params{BSLDThreshold: 2, WQThreshold: core.NoWQLimit}, dyadicGears, tm)
				if err != nil {
					t.Fatal(err)
				}
				return mustRun(t, Spec{Trace: tr, Policy: pol, Gears: dyadicGears, Beta: 0.5,
					Variant: v.variant, Order: v.order, Reservations: v.resv})
			}
			base, moved := run(tr), run(shifted)
			if base.Results.ReducedJobs == 0 {
				t.Fatal("no job ran at a reduced gear; the fixture must exercise dilation")
			}
			if moved.Results != base.Results {
				t.Fatalf("Results differ:\nshifted %+v\nbase    %+v", moved.Results, base.Results)
			}
			want := schedule(t, base)
			for id, r := range schedule(t, moved) {
				w := want[id]
				if r.Start != w.Start+shift || r.End != w.End+shift || r.BSLD != w.BSLD || r.Energy != w.Energy {
					t.Fatalf("job %d ran [%v, %v] BSLD %v, base [%v, %v] BSLD %v shifted by %d",
						id, r.Start, r.End, r.BSLD, w.Start, w.End, w.BSLD, shift)
				}
			}
		})
	}
}

// Job IDs only break ties, so relabelling them without changing their
// order must leave the Results unchanged. Whole-second times make ties in
// submit times and planned ends common.
func TestOrderPreservingRelabelKeepsResults(t *testing.T) {
	tr := integerTrace(smallTrace(t))
	relabelled := &workload.Trace{Name: tr.Name + "-relabelled", CPUs: tr.CPUs}
	for _, j := range tr.Jobs {
		c := *j
		c.ID = 3*j.ID + 1000
		relabelled.Jobs = append(relabelled.Jobs, &c)
	}
	for _, v := range metaVariants {
		t.Run(v.name, func(t *testing.T) {
			spec := Spec{Policy: bsldPolicy(t, 2, 4), Variant: v.variant, Order: v.order, Reservations: v.resv}
			spec.Trace = tr
			a := mustRun(t, spec)
			spec.Trace = relabelled
			b := mustRun(t, spec)
			if a.Results != b.Results {
				t.Fatalf("Results differ:\nrelabelled %+v\noriginal   %+v", b.Results, a.Results)
			}
		})
	}
}
