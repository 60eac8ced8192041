package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dvfs"
	"repro/internal/sched"
	"repro/internal/workload"
)

func testPolicy(t *testing.T, params Params) *Policy {
	t.Helper()
	gears := dvfs.PaperGearSet()
	p, err := NewPolicy(params, gears, dvfs.NewTimeModel(0.5, gears))
	if err != nil {
		t.Fatalf("NewPolicy: %v", err)
	}
	return p
}

func job(reqTime float64) *workload.Job {
	return &workload.Job{ID: 1, Submit: 0, Runtime: reqTime, Procs: 4, ReqTime: reqTime, Beta: -1}
}

func TestPredictedBSLDFormula(t *testing.T) {
	// (wait + rq*coef) / max(th, rq), floored at 1.
	cases := []struct {
		wait, rq, coef, th, want float64
	}{
		{0, 3600, 1, 600, 1},           // no wait, no dilation
		{3600, 3600, 1, 600, 2},        // wait = runtime
		{0, 3600, 1.9375, 600, 1.9375}, // pure dilation
		{0, 100, 1, 600, 1},            // short job clamped
		{1100, 100, 1, 600, 2},         // (1100+100)/600
		{0, 100, 2, 600, 1},            // short dilated job still clamped: 200/600 < 1
	}
	for _, c := range cases {
		if got := PredictedBSLD(c.wait, c.rq, c.coef, c.th); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PredictedBSLD(%v,%v,%v,%v) = %v, want %v", c.wait, c.rq, c.coef, c.th, got, c.want)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{BSLDThreshold: 0.5, WQThreshold: 0},
		{BSLDThreshold: 2, WQThreshold: -1},
		{BSLDThreshold: 2, WQThreshold: 0, ShortJobThreshold: -1},
	}
	for i, p := range bad {
		if err := p.WithDefaults().Validate(); err == nil {
			t.Errorf("params %d accepted", i)
		}
	}
	if err := (Params{BSLDThreshold: 2, WQThreshold: 4}).WithDefaults().Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestDefaults(t *testing.T) {
	p := (Params{BSLDThreshold: 2}).WithDefaults()
	if p.ShortJobThreshold != DefaultShortJobThreshold {
		t.Errorf("default Th = %v, want %v", p.ShortJobThreshold, DefaultShortJobThreshold)
	}
}

func TestName(t *testing.T) {
	p := testPolicy(t, Params{BSLDThreshold: 2, WQThreshold: 16})
	if p.Name() != "bsld(2,16)" {
		t.Errorf("Name = %q", p.Name())
	}
	p = testPolicy(t, Params{BSLDThreshold: 1.5, WQThreshold: NoWQLimit})
	if p.Name() != "bsld(1.5,NO)" {
		t.Errorf("Name = %q", p.Name())
	}
}

// With no wait and a long job, the lowest gear's dilation alone decides:
// Coef(0.8GHz)=1.9375 -> pred 1.9375. Threshold 2 admits the lowest gear;
// threshold 1.5 must climb to a faster gear.
func TestReserveGearPicksLowestPassingGear(t *testing.T) {
	j := job(7200)
	loose := testPolicy(t, Params{BSLDThreshold: 2, WQThreshold: NoWQLimit})
	if g := loose.ReserveGear(j, 0, 0, 0); g.Freq != 0.8 {
		t.Errorf("threshold 2: gear %v, want 0.8GHz", g)
	}
	tight := testPolicy(t, Params{BSLDThreshold: 1.5, WQThreshold: NoWQLimit})
	// Coef(1.1)=0.5*(2.3/1.1-1)+1 ≈ 1.545 -> fails 1.5; Coef(1.4) ≈ 1.321 -> passes.
	if g := tight.ReserveGear(j, 0, 0, 0); g.Freq != 1.4 {
		t.Errorf("threshold 1.5: gear %v, want 1.4GHz", g)
	}
}

func TestReserveGearWaitRaisesGear(t *testing.T) {
	p := testPolicy(t, Params{BSLDThreshold: 2, WQThreshold: NoWQLimit})
	j := job(7200)
	// Started immediately: lowest gear passes (pred 1.9375 < 2).
	if g := p.ReserveGear(j, 0, 0, 0); g.Freq != 0.8 {
		t.Errorf("no wait: %v", g)
	}
	// A start 7200 s after submit adds wait/rq = 1 to the prediction, so
	// even the top gear predicts 2: nothing passes, fall back to Ftop.
	if g := p.ReserveGear(j, 7200, 7200, 0); g.Freq != 2.3 {
		t.Errorf("long wait: %v, want Ftop fallback", g)
	}
}

func TestReserveGearWQGate(t *testing.T) {
	p := testPolicy(t, Params{BSLDThreshold: 3, WQThreshold: 4})
	j := job(7200)
	if g := p.ReserveGear(j, 0, 0, 4); g.Freq != 0.8 {
		t.Errorf("wq=4 at threshold 4: %v, want reduced gear", g)
	}
	if g := p.ReserveGear(j, 0, 0, 5); g.Freq != 2.3 {
		t.Errorf("wq=5 above threshold 4: %v, want Ftop", g)
	}
}

func TestReserveGearWQZero(t *testing.T) {
	// "0 means no DVFS will be applied if there is a job waiting".
	p := testPolicy(t, Params{BSLDThreshold: 3, WQThreshold: 0})
	j := job(7200)
	if g := p.ReserveGear(j, 0, 0, 0); g.Freq != 0.8 {
		t.Errorf("empty queue: %v, want reduced", g)
	}
	if g := p.ReserveGear(j, 0, 0, 1); g.Freq != 2.3 {
		t.Errorf("one waiting job: %v, want Ftop", g)
	}
}

func TestShortJobsAlwaysReduced(t *testing.T) {
	// A job below Th has predicted BSLD 1 at every gear as long as
	// wait+dilated time stays under Th, so the lowest gear always wins.
	p := testPolicy(t, Params{BSLDThreshold: 1.5, WQThreshold: NoWQLimit})
	j := job(100)
	if g := p.ReserveGear(j, 0, 0, 0); g.Freq != 0.8 {
		t.Errorf("short job gear = %v, want lowest", g)
	}
}

func allFeasible(dvfs.Gear) bool  { return true }
func noneFeasible(dvfs.Gear) bool { return false }

func TestBackfillGearPicksLowestFeasiblePassing(t *testing.T) {
	p := testPolicy(t, Params{BSLDThreshold: 2, WQThreshold: NoWQLimit})
	j := job(7200)
	g, ok := p.BackfillGear(j, 0, 0, allFeasible)
	if !ok || g.Freq != 0.8 {
		t.Errorf("backfill = %v,%v, want 0.8GHz", g, ok)
	}
	// Low gears infeasible (would violate the reservation): the policy
	// climbs until both feasibility and BSLD pass.
	onlyFast := func(g dvfs.Gear) bool { return g.Freq >= 1.7 }
	g, ok = p.BackfillGear(j, 0, 0, onlyFast)
	if !ok || g.Freq != 1.7 {
		t.Errorf("backfill = %v,%v, want 1.7GHz", g, ok)
	}
}

func TestBackfillGearInfeasibleEverywhere(t *testing.T) {
	p := testPolicy(t, Params{BSLDThreshold: 2, WQThreshold: NoWQLimit})
	if _, ok := p.BackfillGear(job(7200), 0, 0, noneFeasible); ok {
		t.Error("backfill accepted with no feasible gear")
	}
}

func TestBackfillLenientTopFallback(t *testing.T) {
	// Wait long enough that even the top gear fails the BSLD test.
	j := job(7200)
	wait := 4 * 7200.0 // pred at top = (wait+rq)/rq = 5 > 3
	lenient := testPolicy(t, Params{BSLDThreshold: 3, WQThreshold: NoWQLimit})
	g, ok := lenient.BackfillGear(j, wait, 0, allFeasible)
	if !ok || g.Freq != 2.3 {
		t.Errorf("lenient fallback = %v,%v, want Ftop accepted", g, ok)
	}
	strict := testPolicy(t, Params{BSLDThreshold: 3, WQThreshold: NoWQLimit, StrictBackfillBSLD: true})
	if _, ok := strict.BackfillGear(j, wait, 0, allFeasible); ok {
		t.Error("strict mode backfilled a job whose BSLD exceeds the threshold at Ftop")
	}
}

func TestBackfillWQGateRestrictsToTop(t *testing.T) {
	p := testPolicy(t, Params{BSLDThreshold: 3, WQThreshold: 0})
	j := job(7200)
	g, ok := p.BackfillGear(j, 0, 1, allFeasible)
	if !ok || g.Freq != 2.3 {
		t.Errorf("backfill above WQ gate = %v,%v, want Ftop", g, ok)
	}
}

// TestBackfillGearAsksEachGearOnce pins BackfillGear's feasibility
// calls: at most one per gear, in lenient and strict mode, below and
// above the wait-queue threshold, whether the top gear is feasible but
// fails the BSLD test (the lenient fallback accepts it without asking
// again) or is infeasible.
func TestBackfillGearAsksEachGearOnce(t *testing.T) {
	j := job(7200)
	wait := 4 * 7200.0 // pred at top = (wait+rq)/rq = 5 > 3: every gear fails BSLD
	top := dvfs.PaperGearSet().Top()
	for _, strict := range []bool{false, true} {
		for _, wqOthers := range []int{0, 2} { // threshold 1: below, above
			for _, topFeasible := range []bool{true, false} {
				name := fmt.Sprintf("strict=%v/wq=%d/top-feasible=%v", strict, wqOthers, topFeasible)
				t.Run(name, func(t *testing.T) {
					p := testPolicy(t, Params{BSLDThreshold: 3, WQThreshold: 1, StrictBackfillBSLD: strict})
					calls := map[dvfs.Gear]int{}
					g, ok := p.BackfillGear(j, wait, wqOthers, func(g dvfs.Gear) bool {
						calls[g]++
						return g == top && topFeasible
					})
					for cg, n := range calls {
						if n > 1 {
							t.Errorf("feasibility of %v asked %d times", cg, n)
						}
					}
					if want := topFeasible && !strict; ok != want || (ok && g != top) {
						t.Errorf("BackfillGear = %v,%v, want top accepted: %v", g, ok, want)
					}
				})
			}
		}
	}
}

// End-to-end: the policy inside the EASY engine reduces an isolated job
// and leaves a saturated system at the top gear.
func TestPolicyInsideEASY(t *testing.T) {
	gears := dvfs.PaperGearSet()
	pol := testPolicy(t, Params{BSLDThreshold: 2, WQThreshold: 0})
	rec := &captureRecorder{}
	sys, err := sched.New(sched.Config{
		CPUs: 4, Gears: gears, TimeModel: dvfs.NewTimeModel(0.5, gears),
		Policy: pol, Variant: sched.EASY, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &workload.Trace{Name: "t", CPUs: 4, Jobs: []*workload.Job{
		{ID: 1, Submit: 0, Runtime: 7200, Procs: 4, ReqTime: 7200, Beta: -1},
		{ID: 2, Submit: 10, Runtime: 7200, Procs: 4, ReqTime: 7200, Beta: -1},
	}}
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	// Job 1 arrived into an empty system: reduced (pred 1.9375 < 2).
	if g := rec.gears[1]; g.Freq != 0.8 {
		t.Errorf("job 1 gear = %v, want 0.8GHz", g)
	}
	// Job 2 had to wait roughly one dilated runtime: prediction fails at
	// every gear, so it runs at Ftop.
	if g := rec.gears[2]; g.Freq != 2.3 {
		t.Errorf("job 2 gear = %v, want Ftop", g)
	}
}

type captureRecorder struct {
	gears map[int]dvfs.Gear // gear at start
	final map[int]dvfs.Gear // gear at completion
}

func (c *captureRecorder) JobStarted(rs *sched.RunState, now float64) {
	if c.gears == nil {
		c.gears = map[int]dvfs.Gear{}
	}
	c.gears[rs.Job.ID] = rs.Gear
}

func (c *captureRecorder) JobFinished(rs *sched.RunState, now float64) {
	if c.final == nil {
		c.final = map[int]dvfs.Gear{}
	}
	c.final[rs.Job.ID] = rs.Gear
}

// Property: PredictedBSLD >= 1 always, and is monotone in wait and coef.
func TestQuickPredictedBSLDProperties(t *testing.T) {
	f := func(w1, w2, rq, c1, c2 uint16) bool {
		wait1, wait2 := float64(w1), float64(w1)+float64(w2)
		req := float64(rq) + 1
		coef1 := 1 + float64(c1)/1000
		coef2 := coef1 + float64(c2)/1000
		th := 600.0
		a := PredictedBSLD(wait1, req, coef1, th)
		b := PredictedBSLD(wait2, req, coef1, th)
		c := PredictedBSLD(wait1, req, coef2, th)
		return a >= 1 && b >= a && c >= a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ReserveGear returns a gear from the set, and a higher
// BSLD threshold never yields a higher frequency (more permissive
// thresholds allow lower gears) for identical inputs.
func TestQuickReserveGearMonotoneInThreshold(t *testing.T) {
	gears := dvfs.PaperGearSet()
	tm := dvfs.NewTimeModel(0.5, gears)
	f := func(rqRaw, waitRaw uint16, t1Raw, t2Raw uint8) bool {
		rq := float64(rqRaw) + 1
		wait := float64(waitRaw)
		th1 := 1 + float64(t1Raw)/32
		th2 := th1 + float64(t2Raw)/32
		p1, err1 := NewPolicy(Params{BSLDThreshold: th1, WQThreshold: NoWQLimit}, gears, tm)
		p2, err2 := NewPolicy(Params{BSLDThreshold: th2, WQThreshold: NoWQLimit}, gears, tm)
		if err1 != nil || err2 != nil {
			return false
		}
		j := &workload.Job{ID: 1, Submit: 0, Runtime: rq, Procs: 1, ReqTime: rq, Beta: -1}
		g1 := p1.ReserveGear(j, wait, wait, 0)
		g2 := p2.ReserveGear(j, wait, wait, 0)
		if gears.Index(g1) < 0 || gears.Index(g2) < 0 {
			return false
		}
		// Exception: the Ftop fallback of a tight threshold can sit above
		// a loose threshold's reduced gear; but a looser threshold must
		// never force a *higher* gear when the tight one accepted reduced.
		if gears.Index(g1) != len(gears)-1 && gears.Index(g2) > gears.Index(g1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParamsAccessorAndDefaults(t *testing.T) {
	p := testPolicy(t, Params{BSLDThreshold: 2, WQThreshold: 4})
	got := p.Params()
	if got.BSLDThreshold != 2 || got.WQThreshold != 4 {
		t.Errorf("Params = %+v", got)
	}
	if got.ShortJobThreshold != DefaultShortJobThreshold {
		t.Errorf("defaults not applied: %v", got.ShortJobThreshold)
	}
}

// The boost extension through the full engine: a reduced running job is
// raised to Ftop once the queue exceeds BoostWQ.
func TestBoostThroughEngine(t *testing.T) {
	gears := dvfs.PaperGearSet()
	pol := testPolicy(t, Params{BSLDThreshold: 2, WQThreshold: core0(), Boost: true, BoostWQ: 0})
	rec := &captureRecorder{}
	sys, err := sched.New(sched.Config{
		CPUs: 4, Gears: gears, TimeModel: dvfs.NewTimeModel(0.5, gears),
		Policy: pol, Variant: sched.EASY, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &workload.Trace{Name: "b", CPUs: 4, Jobs: []*workload.Job{
		{ID: 1, Submit: 0, Runtime: 3600, Procs: 4, ReqTime: 3600, Beta: -1},
		{ID: 2, Submit: 100, Runtime: 100, Procs: 4, ReqTime: 100, Beta: -1},
	}}
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	// Job 1 started reduced (empty system, pred 1.94 < 2) but finished at
	// the top gear: the arrival of job 2 triggered the boost.
	if g := rec.gears[1]; g.Freq != 0.8 {
		t.Fatalf("job 1 start gear = %v, want 0.8GHz", g)
	}
	if g := rec.final[1]; g.Freq != 2.3 {
		t.Errorf("job 1 final gear = %v, want boosted to 2.3GHz", g)
	}
}

// core0 returns NoWQLimit without colliding with the package constant in
// expressions above (keeps the literal table readable).
func core0() int { return NoWQLimit }
