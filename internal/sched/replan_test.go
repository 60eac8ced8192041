package sched

import (
	"math/rand"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/workload"
)

// conservativeVarying is the configuration of the replanning fixtures
// below: conservative backfilling on 8 processors under varyingPolicy,
// the EstMonotone policy that drops to the lowest gear while a job's
// start is at most 120 s after its submit and three or fewer others
// wait, and takes the top gear otherwise. At β = 0.5 the lowest gear
// plans 1.9375 times the requested time.
func conservativeVarying() Config {
	gears := dvfs.PaperGearSet()
	return Config{
		CPUs: 8, Gears: gears, TimeModel: dvfs.NewTimeModel(0.5, gears),
		Policy: varyingPolicy{gears: gears}, Variant: Conservative,
	}
}

// fixtureTrace builds a trace from {submit, procs, requested time,
// runtime} rows; jobs are numbered from 1 in row order.
func fixtureTrace(rows [][4]float64) *workload.Trace {
	tr := &workload.Trace{Name: "fixture", CPUs: 8}
	for i, r := range rows {
		tr.Jobs = append(tr.Jobs, &workload.Job{
			ID: i + 1, Submit: r[0], Procs: int(r[1]), ReqTime: r[2], Runtime: r[3], Beta: -1,
		})
	}
	return tr
}

// TestWidenedReaskCatchesDelayedEstimate pins the widened reuse proof's
// re-ask at the reservation start (times below are rounded; the
// dilation coefficient is not exact in floating point). Job 4 (6
// processors) reserves at the lowest gear: its top-gear estimate is
// 116.25, when job 1 ends, but the dilated run does not fit before job
// 3's reservation at 147.25, so its slot is 157.25. At t=1 job 5 starts
// beside the running jobs until 125. That start is validated against
// every reservation, yet it delays job 4's top-gear window from 116.25
// to 125, and at 125 the policy picks the top gear. From then on the
// re-ask at the recorded estimate still says lowest gear; only the
// re-ask at the recorded start, past the 120 s boundary, sends job 4 to
// be replanned, into [125, 145) at the top gear, which keeps job 6 from
// starting at 116.25. Job 1's completion at 116.25 is exactly its
// planned end, so it credits nothing and the plan is kept: dropping the
// re-ask keeps the stale reservation through it and starts job 6 there,
// and the schedule differs from the reference's. (A completion that
// replanned from the head would hide the stale reservation.)
func TestWidenedReaskCatchesDelayedEstimate(t *testing.T) {
	tr := fixtureTrace([][4]float64{
		{0, 4, 60, 60}, // job 1: runs [0, 116.25) at the lowest gear
		{0, 2, 76, 76}, // job 2: runs [0, 147.25)
		{0, 8, 10, 10}, // job 3: reserves [147.25, 157.25) at the top gear
		{0, 6, 20, 20}, // job 4: the reservation under test
		{1, 2, 64, 64}, // job 5: starts at 1, runs to 125
		{1, 4, 12, 12}, // job 6: reserved at 116.25 at the lowest gear
	})
	rec, err := matchReference(t, conservativeVarying(), nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rec.starts[4] != rec.ends[5] || rec.gears[4] != dvfs.PaperGearSet().Top() {
		t.Errorf("job 4 started at %v at %v, want job 5's end %v at the top gear", rec.starts[4], rec.gears[4], rec.ends[5])
	}
	if rec.starts[6] == rec.ends[1] {
		t.Errorf("job 6 started at job 1's end %v, behind a stale reservation", rec.ends[1])
	}
}

// passReplans records, for every scheduling pass a completion triggered,
// the pass time and how many retained reservations it dropped to replan
// them (System.replanned's increase).
type passReplans struct {
	sys      *System
	finished bool
	seen     int
	passes   []passReplan
}

type passReplan struct {
	now       float64
	replanned int
}

func (c *passReplans) JobStarted(*RunState, float64)  {}
func (c *passReplans) JobFinished(*RunState, float64) { c.finished = true }

func (c *passReplans) PassEnd(now float64, queued, busy int) {
	if c.finished {
		c.passes = append(c.passes, passReplan{now, c.sys.replanned - c.seen})
	}
	c.seen, c.finished = c.sys.replanned, false
}

// total sums the completion passes' replanned reservations.
func (c *passReplans) total() int {
	n := 0
	for _, p := range c.passes {
		n += p.replanned
	}
	return n
}

// at returns the replanned count of the completion pass at time now.
func (c *passReplans) at(t *testing.T, now float64) int {
	t.Helper()
	for _, p := range c.passes {
		if p.now == now {
			return p.replanned
		}
	}
	t.Fatalf("no completion pass at %v (passes %v)", now, c.passes)
	return 0
}

// completionReplans runs tr under cfg, after matching it against the
// reference simulator, and returns the completion passes' replan counts
// with the production run's audit.
func completionReplans(t *testing.T, cfg Config, tr *workload.Trace) (*passReplans, *auditRecorder) {
	t.Helper()
	rec, err := matchReference(t, cfg, nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	c := &passReplans{}
	cfg.Recorder = c
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.sys = sys
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	return c, rec
}

// topConservative is conservative backfilling on 8 processors at the top
// gear: planned durations are the requested times.
func topConservative() Config {
	gears := dvfs.PaperGearSet()
	return Config{
		CPUs: 8, Gears: gears, TimeModel: dvfs.NewTimeModel(0.5, gears),
		Policy: topPolicy(), Variant: Conservative,
	}
}

// TestCompletionCreditsRetainedPlan holds the completion credit to three
// hand-built cases. In each, job 2 is planned to run until 10 (or 6) but
// completes at 1, crediting its processors over the rest of its planned
// run to every retained reservation's recorded blocking. The traces are
// also committed FuzzScheduleMatchesReference seeds (the partial-overlap
// and mid-queue cases).
func TestCompletionCreditsRetainedPlan(t *testing.T) {
	t.Run("unusable", func(t *testing.T) {
		// Jobs 3 and 4 need the whole machine, which job 1 holds until
		// 15 whatever job 2 does: both reservations are kept.
		c, _ := completionReplans(t, topConservative(), fixtureTrace([][4]float64{
			{0, 6, 15, 15}, {0, 2, 10, 1}, {0, 8, 5, 5}, {0, 8, 5, 5},
		}))
		if got := c.at(t, 1); got != 0 {
			t.Errorf("the completion at 1 replanned %d reservations, want 0", got)
		}
	})
	t.Run("partial-overlap", func(t *testing.T) {
		// Job 4 (3 processors, 8 s) is blocked until 10 with an excess of
		// 3 over [0, 6) and 1 over [6, 10), recorded as the minimum, 1.
		// The credit [1, 6) splits the stretch at 6: the lowered part
		// drops out, and the 5 s gap it leaves is too short, so [6, 10)
		// still holds job 4 at 10. Lowering the whole stretch instead
		// would replay to 1 and replan it.
		tr := fixtureTrace([][4]float64{
			{0, 2, 15, 15}, {0, 4, 10, 10}, {0, 2, 6, 1}, {0, 3, 8, 8},
		})
		c, rec := completionReplans(t, topConservative(), tr)
		if got := c.at(t, 1); got != 0 {
			t.Errorf("the completion at 1 replanned %d reservations, want 0", got)
		}
		if rec.starts[4] != 10 {
			t.Errorf("job 4 started at %v, want 10", rec.starts[4])
		}
	})
	t.Run("mid-queue-window", func(t *testing.T) {
		// Job 3 (the whole machine) stays at 15, but the credit opens
		// [1, 10) for job 4 (2 processors, 4 s): the pass keeps position
		// 0, replans from job 4, which starts at 1, and job 5 behind it.
		tr := fixtureTrace([][4]float64{
			{0, 6, 15, 15}, {0, 2, 10, 1}, {0, 8, 5, 5}, {0, 2, 4, 4}, {0, 2, 4, 4},
		})
		c, rec := completionReplans(t, topConservative(), tr)
		if got := c.at(t, 1); got != 2 {
			t.Errorf("the completion at 1 replanned %d reservations, want 2 (jobs 4 and 5)", got)
		}
		if rec.starts[4] != 1 || rec.starts[3] != 15 {
			t.Errorf("jobs 3 and 4 started at %v and %v, want 15 and 1", rec.starts[3], rec.starts[4])
		}
	})
}

// standingQueueTrace is a random trace that keeps a queue standing on a
// 64-processor machine: arrivals every 10 s on average, power-of-two
// sizes up to 16, requested times up to 301 s, and runtimes between 70%
// and 100% of the requested time, so most completions come early but
// free only a short tail.
func standingQueueTrace(seed int64, n int) *workload.Trace {
	r := rand.New(rand.NewSource(seed))
	tr := &workload.Trace{Name: "standing-queue", CPUs: 64}
	t := 0.0
	for i := 0; i < n; i++ {
		t += r.Float64() * 20
		req := 1 + r.Float64()*300
		tr.Jobs = append(tr.Jobs, &workload.Job{
			ID: i + 1, Submit: t, Procs: 1 << r.Intn(5), ReqTime: req, Runtime: req * (0.7 + 0.3*r.Float64()), Beta: -1,
		})
	}
	return tr
}

// TestCompletionReplanWorkPinned pins, exactly, how many retained
// reservations the completion passes of a fixed conservative replay drop
// to replan, under varyingPolicy (the widened analysis) and parityPolicy
// (the conservative one, where a start still replans from the head). A
// change in the reuse proof shows up here as a count change even when
// the schedules stay the same. Replanning every completion pass from the
// head would drop 9,145 and 16,651 reservations on these replays.
//
// It also pins the Blocking.Credit calls the completion credits cost
// (System.creditCalls). Queued until a proof reads them, they reach only
// the positions cleanPrefix checks; crediting every retained reservation
// at each completion would make 9,145 and 10,080 calls on these replays.
func TestCompletionReplanWorkPinned(t *testing.T) {
	gears := dvfs.PaperGearSet()
	for _, c := range []struct {
		name    string
		pol     GearPolicy
		want    int
		credits int
	}{
		{"varying", varyingPolicy{gears: gears}, 6431, 2941},
		{"parity", parityPolicy{gears: gears}, 14030, 2766},
	} {
		cfg := Config{
			CPUs: 64, Gears: gears, TimeModel: dvfs.NewTimeModel(0.5, gears),
			Policy: c.pol, Variant: Conservative,
		}
		cnt, _ := completionReplans(t, cfg, standingQueueTrace(1, 300))
		if got := cnt.total(); got != c.want {
			t.Errorf("%s: completion passes replanned %d reservations, want %d", c.name, got, c.want)
		}
		if got := cnt.sys.creditCalls; got != c.credits {
			t.Errorf("%s: completion credits cost %d Credit calls, want %d", c.name, got, c.credits)
		}
	}
}

// TestReplanPassesAllocateNothing pins the steady state of the blocking
// storage: once every queue position has held a reservation, a pass that
// replans the whole queue records each reservation's blocking into the
// storage its position already had, and a credit that splits stretches
// grows nothing either, so neither allocates.
func TestReplanPassesAllocateNothing(t *testing.T) {
	sys := paperSystem(t, 64, Conservative, topPolicy(), nil)
	top := dvfs.PaperGearSet().Top()
	id := 0
	job := func(procs int, req float64) *workload.Job {
		id++
		return &workload.Job{ID: id, Procs: procs, Runtime: req, ReqTime: req, Beta: -1}
	}
	// Eight running jobs of 7 processors leave 8 free, releasing one by
	// one; each queued job needs 60 and is blocked by every release
	// before its slot.
	for k := 0; k < 8; k++ {
		sys.start(job(7, float64(100*(k+1))), top, 0)
	}
	for k := 0; k < 12; k++ {
		sys.queue = append(sys.queue, job(60, 50))
	}
	allocs := testing.AllocsPerRun(50, func() {
		sys.creditPlan(7, 0, 250)
		sys.profMut = true
		sys.pass(0)
	})
	if len(sys.resvMeta) != 12 || len(sys.resvMeta[11].blocked) == 0 {
		t.Fatalf("fixture placed %d reservations, the last blocked by %v", len(sys.resvMeta), sys.resvMeta[11].blocked)
	}
	if allocs != 0 {
		t.Errorf("a replanning pass allocates %v times, want 0", allocs)
	}
}
