package sched

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/workload"
)

// auditRecorder captures job lifecycle events and audits the processor
// invariant (busy never exceeds the machine size).
type auditRecorder struct {
	t       *testing.T
	total   int
	busy    int
	maxBusy int
	starts  map[int]float64
	ends    map[int]float64
	gears   map[int]dvfs.Gear
	reduced map[int]bool
	phases  map[int][]Phase
}

func newAudit(t *testing.T, total int) *auditRecorder {
	return &auditRecorder{
		t: t, total: total,
		starts: map[int]float64{}, ends: map[int]float64{},
		gears: map[int]dvfs.Gear{}, reduced: map[int]bool{},
		phases: map[int][]Phase{},
	}
}

func (a *auditRecorder) JobStarted(rs *RunState, now float64) {
	id := rs.Job.ID
	if _, dup := a.starts[id]; dup {
		a.t.Errorf("job %d started twice", id)
	}
	if now < rs.Job.Submit {
		a.t.Errorf("job %d started at %v before submit %v", id, now, rs.Job.Submit)
	}
	a.starts[id] = now
	a.gears[id] = rs.Gear
	a.busy += rs.Job.Procs
	if a.busy > a.maxBusy {
		a.maxBusy = a.busy
	}
	if a.busy > a.total {
		a.t.Errorf("busy processors %d exceed machine size %d at t=%v", a.busy, a.total, now)
	}
}

func (a *auditRecorder) JobFinished(rs *RunState, now float64) {
	id := rs.Job.ID
	a.ends[id] = now
	a.reduced[id] = rs.Reduced
	// Copy: the scheduler recycles RunStates (and their Phases backing
	// arrays) once JobFinished returns.
	a.phases[id] = append([]Phase(nil), rs.Phases...)
	a.busy -= rs.Job.Procs
}

func paperSystem(t *testing.T, cpus int, variant Variant, pol GearPolicy, rec Recorder) *System {
	t.Helper()
	gears := dvfs.PaperGearSet()
	sys, err := New(Config{
		CPUs:      cpus,
		Gears:     gears,
		TimeModel: dvfs.NewTimeModel(0.5, gears),
		Policy:    pol,
		Variant:   variant,
		Recorder:  rec,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sys
}

func topPolicy() GearPolicy { return FixedGear{Gear: dvfs.PaperGearSet().Top()} }

func mkTrace(cpus int, jobs ...*workload.Job) *workload.Trace {
	for _, j := range jobs {
		if j.Beta == 0 {
			j.Beta = -1
		}
	}
	return &workload.Trace{Name: "test", CPUs: cpus, Jobs: jobs}
}

func TestNewRejectsBadConfig(t *testing.T) {
	gears := dvfs.PaperGearSet()
	tm := dvfs.NewTimeModel(0.5, gears)
	cases := []Config{
		{CPUs: 0, Gears: gears, TimeModel: tm, Policy: topPolicy()},
		{CPUs: 4, Gears: dvfs.GearSet{}, TimeModel: tm, Policy: topPolicy()},
		{CPUs: 4, Gears: gears, TimeModel: tm, Policy: nil},
		{CPUs: 4, Gears: gears, Policy: topPolicy()}, // zero time model
		// β must be finite and ≥ 0: the backfill scans rely on no slower
		// gear finishing sooner than the top gear.
		{CPUs: 4, Gears: gears, TimeModel: dvfs.NewTimeModel(-0.5, gears), Policy: topPolicy()},
		{CPUs: 4, Gears: gears, TimeModel: dvfs.NewTimeModel(math.NaN(), gears), Policy: topPolicy()},
		{CPUs: 4, Gears: gears, TimeModel: dvfs.NewTimeModel(math.Inf(1), gears), Policy: topPolicy()},
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestSingleJobRunsImmediately(t *testing.T) {
	rec := newAudit(t, 4)
	sys := paperSystem(t, 4, EASY, topPolicy(), rec)
	tr := mkTrace(4, &workload.Job{ID: 1, Submit: 5, Runtime: 100, Procs: 2, ReqTime: 200})
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	if rec.starts[1] != 5 {
		t.Errorf("start = %v, want 5", rec.starts[1])
	}
	if rec.ends[1] != 105 {
		t.Errorf("end = %v, want 105 (runtime, not requested)", rec.ends[1])
	}
}

func TestJobKilledAtRequestedLimit(t *testing.T) {
	rec := newAudit(t, 4)
	sys := paperSystem(t, 4, EASY, topPolicy(), rec)
	tr := mkTrace(4, &workload.Job{ID: 1, Submit: 0, Runtime: 500, Procs: 1, ReqTime: 300})
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	if rec.ends[1] != 300 {
		t.Errorf("end = %v, want 300 (killed at limit)", rec.ends[1])
	}
}

// The canonical EASY scenario: a short job jumps the queue through the
// hole left before the head job's reservation, and a long one is refused.
func TestEASYBackfillClassic(t *testing.T) {
	rec := newAudit(t, 4)
	sys := paperSystem(t, 4, EASY, topPolicy(), rec)
	tr := mkTrace(4,
		&workload.Job{ID: 1, Submit: 0, Runtime: 100, Procs: 2, ReqTime: 100},  // runs [0,100)
		&workload.Job{ID: 2, Submit: 10, Runtime: 100, Procs: 4, ReqTime: 100}, // head: reserved at 100
		&workload.Job{ID: 3, Submit: 20, Runtime: 50, Procs: 2, ReqTime: 50},   // backfills: ends 70 <= 100
		&workload.Job{ID: 4, Submit: 30, Runtime: 100, Procs: 2, ReqTime: 100}, // must wait: would delay head
	)
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{1: 0, 2: 100, 3: 20, 4: 200}
	for id, w := range want {
		if got := rec.starts[id]; got != w {
			t.Errorf("job %d start = %v, want %v", id, got, w)
		}
	}
}

// Without backfilling (FCFS) the same trace keeps strict arrival order.
func TestFCFSNoBackfill(t *testing.T) {
	rec := newAudit(t, 4)
	sys := paperSystem(t, 4, FCFS, topPolicy(), rec)
	tr := mkTrace(4,
		&workload.Job{ID: 1, Submit: 0, Runtime: 100, Procs: 2, ReqTime: 100},
		&workload.Job{ID: 2, Submit: 10, Runtime: 100, Procs: 4, ReqTime: 100},
		&workload.Job{ID: 3, Submit: 20, Runtime: 50, Procs: 2, ReqTime: 50},
		&workload.Job{ID: 4, Submit: 30, Runtime: 100, Procs: 2, ReqTime: 100},
	)
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	// Job 2 waits for job 1; jobs 3 and 4 wait for job 2, then share.
	want := map[int]float64{1: 0, 2: 100, 3: 200, 4: 200}
	for id, w := range want {
		if got := rec.starts[id]; got != w {
			t.Errorf("job %d start = %v, want %v", id, got, w)
		}
	}
}

// A backfilled job may run past the shadow time if it fits into the extra
// processors the head job leaves free.
func TestEASYBackfillOnExtraProcessors(t *testing.T) {
	rec := newAudit(t, 8)
	sys := paperSystem(t, 8, EASY, topPolicy(), rec)
	tr := mkTrace(8,
		&workload.Job{ID: 1, Submit: 0, Runtime: 100, Procs: 3, ReqTime: 100},  // [0,100)
		&workload.Job{ID: 2, Submit: 0, Runtime: 50, Procs: 3, ReqTime: 50},    // [0,50)
		&workload.Job{ID: 3, Submit: 10, Runtime: 100, Procs: 7, ReqTime: 100}, // head: shadow=100, extra=1
		&workload.Job{ID: 4, Submit: 20, Runtime: 500, Procs: 1, ReqTime: 500}, // long but 1 cpu <= extra: backfills
		&workload.Job{ID: 5, Submit: 25, Runtime: 500, Procs: 1, ReqTime: 500}, // extra exhausted: waits
		&workload.Job{ID: 6, Submit: 30, Runtime: 60, Procs: 1, ReqTime: 60},   // ends 90 <= 100: backfills
	)
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	if rec.starts[4] != 20 {
		t.Errorf("job 4 start = %v, want 20 (fits extra processors)", rec.starts[4])
	}
	if rec.starts[6] != 30 {
		t.Errorf("job 6 start = %v, want 30 (ends before shadow)", rec.starts[6])
	}
	if rec.starts[3] != 100 {
		t.Errorf("head start = %v, want 100 (reservation honoured)", rec.starts[3])
	}
	if rec.starts[5] < 100 {
		t.Errorf("job 5 start = %v, want >= 100 (extra exhausted)", rec.starts[5])
	}
}

// Early completions must trigger rescheduling so the head starts sooner
// than its requested-time reservation predicted.
func TestEarlyCompletionReschedules(t *testing.T) {
	rec := newAudit(t, 4)
	sys := paperSystem(t, 4, EASY, topPolicy(), rec)
	tr := mkTrace(4,
		// Requests 1000 s but actually runs 50 s.
		&workload.Job{ID: 1, Submit: 0, Runtime: 50, Procs: 4, ReqTime: 1000},
		&workload.Job{ID: 2, Submit: 10, Runtime: 100, Procs: 4, ReqTime: 100},
	)
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	if rec.starts[2] != 50 {
		t.Errorf("job 2 start = %v, want 50 (rescheduled on early end)", rec.starts[2])
	}
}

// Reduced-gear execution dilates the run time by the β model coefficient.
func TestGearDilatesRuntime(t *testing.T) {
	low := dvfs.PaperGearSet().Lowest()
	rec := newAudit(t, 4)
	sys := paperSystem(t, 4, EASY, FixedGear{Gear: low}, rec)
	tr := mkTrace(4, &workload.Job{ID: 1, Submit: 0, Runtime: 1000, Procs: 2, ReqTime: 1000})
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	// Coef(0.8) = 0.5*(2.3/0.8-1)+1 = 1.9375 -> ends at 1937.5.
	if math.Abs(rec.ends[1]-1937.5) > 1e-9 {
		t.Errorf("end = %v, want 1937.5", rec.ends[1])
	}
	if !rec.reduced[1] {
		t.Error("job not marked reduced")
	}
	if len(rec.phases[1]) != 1 || rec.phases[1][0].Gear != low {
		t.Errorf("phases = %+v, want single low-gear phase", rec.phases[1])
	}
}

// Per-job β overrides the global model.
func TestPerJobBetaOverride(t *testing.T) {
	low := dvfs.PaperGearSet().Lowest()
	rec := newAudit(t, 4)
	sys := paperSystem(t, 4, EASY, FixedGear{Gear: low}, rec)
	tr := mkTrace(4, &workload.Job{ID: 1, Submit: 0, Runtime: 1000, Procs: 2, ReqTime: 1000, Beta: 0})
	// Beta 0 would be overwritten by mkTrace's -1 defaulting; set after.
	tr.Jobs[0].Beta = 0
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	if math.Abs(rec.ends[1]-1000) > 1e-9 {
		t.Errorf("end = %v, want 1000 (β=0 means no dilation)", rec.ends[1])
	}
}

// boostPolicy runs everything at the lowest gear but raises running jobs
// to the top gear as soon as any job waits — the dynamic boost extension.
type boostPolicy struct {
	gears dvfs.GearSet
}

func (p boostPolicy) Name() string { return "boost-test" }
func (p boostPolicy) ReserveGear(*workload.Job, float64, float64, int) dvfs.Gear {
	return p.gears.Lowest()
}
func (p boostPolicy) BackfillGear(j *workload.Job, now float64, wq int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	return p.gears.Lowest(), feasible(p.gears.Lowest())
}
func (p boostPolicy) Bind(*System) {}
func (p boostPolicy) ControlPass(sys *System, now float64) {
	if sys.QueueLen() == 0 {
		return
	}
	for _, rs := range sys.Running() {
		sys.SetGear(rs, p.gears.Top(), now)
	}
}

func TestDynamicBoostRescalesRemainingWork(t *testing.T) {
	gears := dvfs.PaperGearSet()
	rec := newAudit(t, 4)
	sys := paperSystem(t, 4, EASY, boostPolicy{gears: gears}, rec)
	// Job 1 occupies the machine at the lowest gear (Coef 1.9375). At
	// t=968.75 exactly half its work is done (500 of 1000 top-seconds).
	// Job 2's arrival then boosts it to the top gear, so the remaining
	// 500 top-seconds run undilated: completion at 968.75+500 = 1468.75.
	tr := mkTrace(4,
		&workload.Job{ID: 1, Submit: 0, Runtime: 1000, Procs: 4, ReqTime: 1000},
		&workload.Job{ID: 2, Submit: 968.75, Runtime: 100, Procs: 1, ReqTime: 100},
	)
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	if math.Abs(rec.ends[1]-1468.75) > 1e-9 {
		t.Errorf("boosted job end = %v, want 1468.75", rec.ends[1])
	}
	ph := rec.phases[1]
	if len(ph) != 2 {
		t.Fatalf("phases = %+v, want 2", ph)
	}
	if math.Abs(ph[0].Dur-968.75) > 1e-9 || ph[0].Gear != gears.Lowest() {
		t.Errorf("phase 0 = %+v", ph[0])
	}
	if math.Abs(ph[1].Dur-500) > 1e-9 || ph[1].Gear != gears.Top() {
		t.Errorf("phase 1 = %+v", ph[1])
	}
	if !rec.reduced[1] {
		t.Error("boosted job must still count as reduced")
	}
}

// Conservative backfilling fills a hole ahead of the queue when doing so
// delays no earlier reservation, unlike FCFS.
func TestConservativeFillsHole(t *testing.T) {
	rec := newAudit(t, 6)
	sys := paperSystem(t, 6, Conservative, topPolicy(), rec)
	tr := mkTrace(6,
		&workload.Job{ID: 1, Submit: 0, Runtime: 100, Procs: 4, ReqTime: 100}, // [0,100)
		&workload.Job{ID: 2, Submit: 1, Runtime: 50, Procs: 6, ReqTime: 50},   // reserved [100,150)
		&workload.Job{ID: 3, Submit: 2, Runtime: 90, Procs: 2, ReqTime: 90},   // fits [2,92) beside job 1
	)
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	if rec.starts[3] != 2 {
		t.Errorf("job 3 start = %v, want 2 (hole fill)", rec.starts[3])
	}
	if rec.starts[2] != 100 {
		t.Errorf("job 2 start = %v, want 100 (reservation kept)", rec.starts[2])
	}
}

// Conservative must refuse a jump-ahead that would delay an earlier
// reservation.
func TestConservativeProtectsReservations(t *testing.T) {
	rec := newAudit(t, 6)
	sys := paperSystem(t, 6, Conservative, topPolicy(), rec)
	tr := mkTrace(6,
		&workload.Job{ID: 1, Submit: 0, Runtime: 100, Procs: 4, ReqTime: 100},
		&workload.Job{ID: 2, Submit: 1, Runtime: 50, Procs: 6, ReqTime: 50}, // reserved [100,150)
		// Overlaps job 2's reservation window on 2 cpus: 6+2 > 6, refused.
		&workload.Job{ID: 3, Submit: 2, Runtime: 120, Procs: 2, ReqTime: 120},
	)
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	if rec.starts[3] < 150 {
		t.Errorf("job 3 start = %v, want >= 150", rec.starts[3])
	}
}

func TestSimulateRejectsOversizedJob(t *testing.T) {
	sys := paperSystem(t, 4, EASY, topPolicy(), nil)
	tr := mkTrace(8, &workload.Job{ID: 1, Submit: 0, Runtime: 10, Procs: 8, ReqTime: 10})
	if err := sys.Simulate(tr); err == nil {
		t.Error("oversized job accepted")
	}
}

func randomTrace(seed int64, cpus, n int) *workload.Trace {
	r := rand.New(rand.NewSource(seed))
	tr := &workload.Trace{Name: "rand", CPUs: cpus}
	t := 0.0
	for i := 0; i < n; i++ {
		t += r.Float64() * 30
		rt := 1 + r.Float64()*300
		rq := rt * (1 + r.Float64()*3)
		tr.Jobs = append(tr.Jobs, &workload.Job{
			ID: i + 1, Submit: t, Runtime: rt, Procs: 1 + r.Intn(cpus), ReqTime: rq, Beta: -1,
		})
	}
	return tr
}

// Property: every variant completes every job, never oversubscribes the
// machine, and never starts a job before its submit time.
func TestRandomTracesAllVariants(t *testing.T) {
	for _, variant := range []Variant{EASY, FCFS, Conservative} {
		for seed := int64(0); seed < 8; seed++ {
			rec := newAudit(t, 16)
			sys := paperSystem(t, 16, variant, topPolicy(), rec)
			tr := randomTrace(seed, 16, 120)
			if err := sys.Simulate(tr); err != nil {
				t.Fatalf("%v seed %d: %v", variant, seed, err)
			}
			if len(rec.ends) != 120 {
				t.Errorf("%v seed %d: %d/120 jobs finished", variant, seed, len(rec.ends))
			}
		}
	}
}

// Property: FCFS starts jobs in strict arrival order.
func TestFCFSOrderingProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rec := newAudit(t, 8)
		sys := paperSystem(t, 8, FCFS, topPolicy(), rec)
		tr := randomTrace(seed, 8, 80)
		if err := sys.Simulate(tr); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(tr.Jobs); i++ {
			a, b := tr.Jobs[i-1], tr.Jobs[i]
			if rec.starts[b.ID] < rec.starts[a.ID] {
				t.Fatalf("seed %d: job %d (arrived later) started %v before job %d at %v",
					seed, b.ID, rec.starts[b.ID], a.ID, rec.starts[a.ID])
			}
		}
	}
}

// Property: determinism — identical configurations produce identical
// schedules.
func TestDeterminism(t *testing.T) {
	run := func() map[int]float64 {
		rec := newAudit(t, 16)
		sys := paperSystem(t, 16, EASY, topPolicy(), rec)
		if err := sys.Simulate(randomTrace(99, 16, 200)); err != nil {
			t.Fatal(err)
		}
		return rec.starts
	}
	a, b := run(), run()
	for id, st := range a {
		if b[id] != st {
			t.Fatalf("job %d start differs between identical runs: %v vs %v", id, st, b[id])
		}
	}
}

// Property: with accurate estimates and backfilling, no job starts later
// than it would under FCFS *for the head-of-queue job at any time* —
// checked indirectly: EASY's makespan never exceeds FCFS's on these traces
// plus the strong invariant that both complete the same work.
func TestEASYCompletesSameWorkAsFCFS(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		totals := map[Variant]float64{}
		for _, v := range []Variant{EASY, FCFS} {
			rec := newAudit(t, 12)
			sys := paperSystem(t, 12, v, topPolicy(), rec)
			tr := randomTrace(seed, 12, 100)
			if err := sys.Simulate(tr); err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for id, e := range rec.ends {
				sum += e - rec.starts[id]
			}
			totals[v] = sum
		}
		if math.Abs(totals[EASY]-totals[FCFS]) > 1e-6 {
			t.Errorf("seed %d: total runtime differs: EASY %v vs FCFS %v",
				seed, totals[EASY], totals[FCFS])
		}
	}
}

func TestSystemAccessorsAndStrings(t *testing.T) {
	sys := paperSystem(t, 4, EASY, topPolicy(), nil)
	if sys.Now() != 0 {
		t.Errorf("Now = %v", sys.Now())
	}
	if sys.Cluster().Total() != 4 {
		t.Errorf("Cluster.Total = %d", sys.Cluster().Total())
	}
	if len(sys.Gears()) != 6 {
		t.Errorf("Gears = %d", len(sys.Gears()))
	}
	for v, want := range map[Variant]string{EASY: "easy", FCFS: "fcfs", Conservative: "conservative", Variant(9): "variant(9)"} {
		if v.String() != want {
			t.Errorf("Variant(%d).String() = %q, want %q", int(v), v.String(), want)
		}
	}
	for o, want := range map[Order]string{FCFSOrder: "fcfs", SJFOrder: "sjf"} {
		if o.String() != want {
			t.Errorf("Order.String() = %q, want %q", o.String(), want)
		}
	}
	if got := (FixedGear{Gear: sys.Gears().Top()}).Name(); got != "fixed@2.3GHz@1.5V" {
		t.Errorf("FixedGear.Name = %q", got)
	}
}

func TestMultiRecorderFanOut(t *testing.T) {
	a := newAudit(t, 4)
	b := newAudit(t, 4)
	sys := paperSystem(t, 4, EASY, topPolicy(), MultiRecorder{a, b})
	tr := mkTrace(4, &workload.Job{ID: 1, Submit: 0, Runtime: 10, Procs: 2, ReqTime: 10})
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	if a.starts[1] != b.starts[1] || a.ends[1] != b.ends[1] {
		t.Error("multi-recorder members diverged")
	}
}

func TestRunStateWallClock(t *testing.T) {
	rs := &RunState{Start: 100}
	if rs.WallClock(150) != 50 {
		t.Errorf("WallClock = %v", rs.WallClock(150))
	}
}
