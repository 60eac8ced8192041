package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Variant selects the base job scheduling policy.
type Variant int

const (
	// EASY is aggressive backfilling with a single reservation for the
	// head of the queue (the paper's base policy).
	EASY Variant = iota
	// FCFS starts jobs strictly in arrival order, no backfilling.
	FCFS
	// Conservative gives every queued job a reservation; a job may jump
	// ahead only if it delays no earlier-queued job.
	Conservative
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case EASY:
		return "easy"
	case FCFS:
		return "fcfs"
	case Conservative:
		return "conservative"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// ParseVariant resolves a base policy name.
func ParseVariant(name string) (Variant, error) {
	switch name {
	case "easy", "":
		return EASY, nil
	case "fcfs":
		return FCFS, nil
	case "conservative", "cons":
		return Conservative, nil
	}
	return 0, fmt.Errorf("sched: unknown scheduling variant %q (easy, fcfs, conservative)", name)
}

// Recorder receives job lifecycle callbacks; the metrics collector
// implements it. A nil Recorder disables recording. Implementations must
// not retain rs (or its Alloc.Runs / Phases slices) past the callback:
// the scheduler recycles run states once JobFinished returns.
type Recorder interface {
	JobStarted(rs *RunState, now float64)
	JobFinished(rs *RunState, now float64)
}

// Order is the queue discipline: the order in which waiting jobs are
// considered for reservations and backfilling.
type Order int

const (
	// FCFSOrder considers jobs in arrival order (the paper's setting).
	FCFSOrder Order = iota
	// SJFOrder considers shorter requested times first — the classic
	// backfilling variant trading fairness for wait time.
	SJFOrder
)

// String names the order.
func (o Order) String() string {
	if o == SJFOrder {
		return "sjf"
	}
	return "fcfs"
}

// ParseOrder resolves a queue discipline name.
func ParseOrder(name string) (Order, error) {
	switch name {
	case "fcfs", "":
		return FCFSOrder, nil
	case "sjf":
		return SJFOrder, nil
	}
	return 0, fmt.Errorf("sched: unknown queue order %q (fcfs, sjf)", name)
}

// Config assembles a simulated system.
type Config struct {
	CPUs      int
	Gears     dvfs.GearSet
	TimeModel dvfs.TimeModel
	Policy    GearPolicy
	Variant   Variant
	Recorder  Recorder
	// Controller is the per-pass observe–decide–actuate seam: it is bound
	// to the system by New and its ControlPass runs after every scheduling
	// pass. A Policy that itself implements PowerController keeps its own
	// per-pass hook regardless (the §7 dynamic boost rides on this, and is
	// bound by New); it runs before Controller, which actuates last. Nil
	// with a controller-free policy disables the loop entirely.
	Controller PowerController
	// Selection is the resource selection policy mapping job processes
	// to processors (First Fit in the paper).
	Selection cluster.Selection
	// Order is the queue discipline (FCFS in the paper).
	Order Order
	// Reservations sets how many blocked jobs hold reservations under
	// EASY: 0 or 1 is classic EASY (single reservation); larger values
	// give "flexible" backfilling that protects the first K queued jobs;
	// Conservative ignores this (every job is protected).
	Reservations int
}

// System simulates one cluster under one scheduling policy.
type System struct {
	cfg    Config
	engine *sim.Engine
	cl     *cluster.Cluster
	queue  []*workload.Job

	// runList holds running jobs in start order. Finished entries are
	// tombstoned to nil (O(1) removal) and compacted once they exceed
	// half the slice; iteration must skip nils. runNil counts tombstones.
	runList []*RunState
	runNil  int

	// policyCtrl is the gear policy's own per-pass hook when the policy
	// implements PowerController (the §7 dynamic boost). It runs before
	// the explicit Config.Controller so a cluster-level controller always
	// acts last and its enforcement wins.
	policyCtrl PowerController

	// src streams the workload into the engine: only one future arrival
	// is in the event heap at any time, so heap size stays O(running
	// jobs) — and with a lazily generating source (wgen.Stream, the
	// incremental SWF reader) total live memory does too. srcPtr is the
	// source's stable-pointer fast path (SliceSource), which avoids
	// allocating a Job per arrival on materialized replays.
	src        workload.JobSource
	srcPtr     workload.PtrSource
	srcTrusted bool    // jobs were validated upfront (Simulate); skip per-arrival checks
	fedJobs    int     // arrivals fed so far
	lastSubmit float64 // monotonicity check over the stream
	srcErr     error   // first streaming failure; aborts the run
	invErr     error   // first scheduler invariant violation; aborts the run

	// The release schedule holds the live jobs' planned releases sorted
	// by (PlannedEnd, job ID) in the chunked ordered index relIdx
	// (O(log n + chunk) per start, completion or gear change): the input
	// to the EASY shadow sweep and to the replanning profile's bulk loads.
	// It starts dirty (relDirty) and the first consumer — a blocked EASY
	// pass or a replanning pass — builds it from the run list; relAdd and
	// relRemove maintain it from then on and cost one branch while it is
	// dirty, so a run that never consults it never builds it. relUnread
	// counts the mutations since the last read: a burst of them marks the
	// schedule dirty again (relStale). relCache is the sort scratch for
	// the bulk builds.
	relCache  []release
	relIdx    relIndex
	relDirty  bool
	relUnread int

	// bf is the backfill feasibility predicate's state, and bfEasy and
	// bfProfile its method values bound once in New: a backfill scan sets
	// the candidate's fields and hands the same function value to every
	// BackfillGear call instead of allocating a closure per candidate.
	bf        backfillCheck
	bfEasy    func(dvfs.Gear) bool
	bfProfile func(dvfs.Gear) bool

	// prof is the replanning passes' availability profile and profRels
	// the clamped release schedule fed to its epoch loads.
	prof     *profile.Profile
	profRels []profile.Release

	// Persistent-profile (incremental replanning) state. Replanning
	// keeps prof alive across passes: the base skyline is
	// mutated in O(1) per start/completion/gear switch, and reservations
	// placed in earlier passes are reused verbatim up to the first queue
	// position whose reservation could move (the changed-prefix
	// analysis). resvMeta records, per retained reservation, the inputs
	// that planned it and what blocked it from starting earlier;
	// profClean is how many leading entries the next pass may consider
	// reusing; profMut notes a base mutation since they were planned that
	// invalidates the whole prefix. A completion does not set it: it
	// queues a credit for the retained reservations' recorded blocking
	// (creditPlan, into credits), and cleanPrefix applies the queue to
	// each position it checks and replays a credited blocking to prove
	// the reservation unchanged. A gear switch sets it (its added
	// occupancy was never validated against the plan), and so does a job
	// start under the conservative analysis. Under the widened one
	// (profWiden — the gear policy implements EstMonotonePolicy) a start's
	// occupancy was feasibility-validated against the full tier including
	// every retained reservation, so it can neither delay a retained
	// window nor open an earlier one, and cleanPrefix instead re-asks the
	// gear decision at both ends of the interval the top-gear estimate
	// may have drifted across. replanned counts the reservations passes
	// dropped to replan them, and creditCalls the Blocking.Credit calls
	// the queued credits cost.
	resvMeta    []resvInfo
	credits     []credit
	profLive    bool
	profMut     bool
	profWiden   bool
	profClean   int
	replanned   int
	creditCalls int

	// rsPool recycles RunStates after their completion callbacks ran,
	// together with their Alloc.Runs and Phases capacity, so the steady
	// state of a replay allocates nothing per job.
	rsPool []*RunState
}

// New validates the configuration and returns a ready system.
func New(cfg Config) (*System, error) {
	if cfg.CPUs < 1 {
		return nil, fmt.Errorf("sched: invalid CPU count %d", cfg.CPUs)
	}
	if err := cfg.Gears.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("sched: nil gear policy")
	}
	if cfg.TimeModel.Fmax <= 0 {
		return nil, fmt.Errorf("sched: time model missing anchor frequency")
	}
	// A β below zero would make slower gears finish sooner, breaking the
	// backfill scans' top-gear prefilter; a non-finite one has no meaning.
	if !(cfg.TimeModel.Beta >= 0) || math.IsInf(cfg.TimeModel.Beta, 1) {
		return nil, fmt.Errorf("sched: time model β %v is not a finite value ≥ 0", cfg.TimeModel.Beta)
	}
	cl, err := cluster.NewWithSelection(cfg.CPUs, cfg.Selection)
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	s := &System{
		cfg:    cfg,
		engine: sim.NewEngine(),
		cl:     cl,
		// Starts dirty: the first consumer builds the release schedule
		// from the run list (picking up run lists assembled outside
		// start(), as white-box tests do), and a run with no consumer
		// never pays for its upkeep.
		relDirty: true,
	}
	s.bf.s = s
	s.bfEasy = s.bf.easy
	s.bfProfile = s.bf.fits
	_, s.profWiden = cfg.Policy.(EstMonotonePolicy)
	// A gear policy that is also a controller serves both seams: the
	// per-job decisions through GearPolicy, the per-pass ones through
	// ControlPass. It keeps its hook even when an explicit cluster-level
	// controller is configured, so e.g. the §7 boost composes with power
	// capping instead of being silently dropped.
	if pc, ok := cfg.Policy.(PowerController); ok {
		s.policyCtrl = pc
	}
	if any(s.cfg.Controller) == any(cfg.Policy) {
		// Registering the policy explicitly is the same as promotion; a
		// nil-nil match is harmless (both slots stay empty).
		s.cfg.Controller = nil
	}
	if s.policyCtrl != nil {
		s.policyCtrl.Bind(s)
	}
	if s.cfg.Controller != nil {
		// A controller that observes lifecycle events (an online power
		// meter) is spliced into the recorder chain, so callers configure
		// it once and the observe half of the loop wires itself.
		if rec, ok := s.cfg.Controller.(Recorder); ok {
			if s.cfg.Recorder == nil {
				s.cfg.Recorder = rec
			} else {
				s.cfg.Recorder = MultiRecorder{s.cfg.Recorder, rec}
			}
		}
		s.cfg.Controller.Bind(s)
	}
	return s, nil
}

// controlPass runs the power-controller seam at the end of a scheduling
// pass. It is the actuation point of the controller layer: starts and
// backfills for this epoch are placed, so controllers see (and may
// regear) the post-decision running set. The policy's own hook runs
// first; the explicit cluster-level controller actuates last, so its
// enforcement wins over per-job boosting.
func (s *System) controlPass(now float64) {
	if s.policyCtrl != nil {
		s.policyCtrl.ControlPass(s, now)
	}
	if s.cfg.Controller != nil {
		s.cfg.Controller.ControlPass(s, now)
	}
}

// Now returns the current simulation time.
func (s *System) Now() float64 { return s.engine.Now() }

// PeakEvents returns the high-water mark of the event heap over the run —
// O(running jobs), since arrivals are streamed.
func (s *System) PeakEvents() int { return s.engine.MaxPending() }

// QueueLen returns the number of jobs waiting on execution.
func (s *System) QueueLen() int { return len(s.queue) }

// Running returns the running jobs in start order. The slice is shared;
// callers must not mutate it.
func (s *System) Running() []*RunState {
	if s.runNil > 0 {
		s.compactRunList()
	}
	return s.runList
}

// runningCount returns the number of live entries in the run list.
func (s *System) runningCount() int { return len(s.runList) - s.runNil }

// compactRunList squeezes tombstones out of the run list, preserving
// start order and refreshing every entry's index.
func (s *System) compactRunList() {
	w := 0
	for _, rs := range s.runList {
		if rs == nil {
			continue
		}
		rs.runIdx = w
		s.runList[w] = rs
		w++
	}
	for i := w; i < len(s.runList); i++ {
		s.runList[i] = nil
	}
	s.runList = s.runList[:w]
	s.runNil = 0
}

// Cluster exposes the machine, e.g. for utilization accounting.
func (s *System) Cluster() *cluster.Cluster { return s.cl }

// Gears returns the configured gear set.
func (s *System) Gears() dvfs.GearSet { return s.cfg.Gears }

// Coef returns the run-time dilation multiplier for job j at gear g,
// honouring a per-job β override.
func (s *System) Coef(j *workload.Job, g dvfs.Gear) float64 {
	return s.cfg.TimeModel.CoefWithBeta(j.Beta, g)
}

// reqDur is the planned occupancy (kill limit) of j at gear g.
func (s *System) reqDur(j *workload.Job, g dvfs.Gear) float64 {
	return j.ReqTime * s.Coef(j, g)
}

// actDur is the true execution time of j at gear g.
func (s *System) actDur(j *workload.Job, g dvfs.Gear) float64 {
	return j.EffectiveRuntime() * s.Coef(j, g)
}

// Simulate schedules every job of the trace and runs to completion. The
// trace must fit the machine.
//
// Arrivals are fed to the event engine lazily from the submit-sorted
// trace: at most one future arrival is in the event heap at any time, so
// the heap holds O(running jobs) events regardless of trace length. An
// unsorted trace is sorted into a private copy first, stably, so submit
// ties keep their trace order.
func (s *System) Simulate(tr *workload.Trace) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	sorted := true
	for i, j := range tr.Jobs {
		if j.Procs > s.cfg.CPUs {
			return fmt.Errorf("sched: job %d needs %d > %d processors", j.ID, j.Procs, s.cfg.CPUs)
		}
		if i > 0 && j.Submit < tr.Jobs[i-1].Submit {
			sorted = false
		}
	}
	jobs := tr.Jobs
	if !sorted {
		jobs = append([]*workload.Job(nil), tr.Jobs...)
		sort.SliceStable(jobs, func(a, b int) bool {
			return jobs[a].Submit < jobs[b].Submit
		})
	}
	// Everything feedArrival would check per arrival was just verified
	// over the whole (now sorted) trace, so the hot path can skip it.
	return s.simulateSource(workload.NewSliceSource(tr.Name, tr.CPUs, jobs), true)
}

// SimulateSource schedules every job the source yields and runs to
// completion. The source is rewound first, so one source can back
// repeated runs (policy and baseline, sweep cells). Jobs are validated as
// they stream: a malformed or machine-overflowing job, a submit-time
// regression, or a source failure aborts the run with an error.
//
// Only the next pending arrival is held in the event heap, so with a
// lazily generating source the whole simulation runs in O(running jobs)
// live memory regardless of workload length.
func (s *System) SimulateSource(src workload.JobSource) error {
	return s.simulateSource(src, false)
}

// simulateSource is the shared run loop; trusted skips the per-arrival
// validation for workloads Simulate already verified upfront.
func (s *System) simulateSource(src workload.JobSource, trusted bool) error {
	if err := src.Reset(); err != nil {
		return fmt.Errorf("sched: resetting workload source %q: %w", src.Name(), err)
	}
	s.src = src
	s.srcPtr, _ = src.(workload.PtrSource)
	s.srcTrusted = trusted
	s.fedJobs, s.lastSubmit, s.srcErr, s.invErr = 0, 0, nil, nil
	if err := s.feedArrival(); err != nil {
		return err
	}
	if s.fedJobs == 0 {
		return fmt.Errorf("sched: workload %q is empty", src.Name())
	}
	s.engine.Run(s.dispatch)
	if s.srcErr != nil {
		return s.srcErr
	}
	if s.invErr != nil {
		return s.invErr
	}
	if len(s.queue) > 0 || s.runningCount() > 0 {
		return fmt.Errorf("sched: simulation drained with %d queued and %d running jobs",
			len(s.queue), s.runningCount())
	}
	return nil
}

// nextJob pulls the next job from the source, using the stable-pointer
// fast path when available and allocating otherwise (the job must outlive
// the stream cursor: it is referenced until its completion callbacks ran).
func (s *System) nextJob() (*workload.Job, bool) {
	if s.srcPtr != nil {
		return s.srcPtr.NextPtr()
	}
	j, ok := s.src.Next()
	if !ok {
		return nil, false
	}
	cp := j
	return &cp, true
}

// feedArrival schedules the next pending arrival of the streamed
// workload, validating it against the machine and the stream's ordering
// contract. The source is dropped once exhausted.
func (s *System) feedArrival() error {
	if s.src == nil {
		return nil
	}
	j, ok := s.nextJob()
	if !ok {
		err := s.src.Err()
		s.src, s.srcPtr = nil, nil
		if err != nil {
			return fmt.Errorf("sched: workload stream failed after %d jobs: %w", s.fedJobs, err)
		}
		return nil
	}
	if !s.srcTrusted {
		if err := j.Validate(); err != nil {
			return fmt.Errorf("sched: %w", err)
		}
		if j.Procs > s.cfg.CPUs {
			return fmt.Errorf("sched: job %d needs %d > %d processors", j.ID, j.Procs, s.cfg.CPUs)
		}
		// Streamed feeding relies on nondecreasing submits: the next
		// arrival is scheduled while the engine sits at the previous one.
		if s.fedJobs > 0 && j.Submit < s.lastSubmit {
			return fmt.Errorf("sched: workload stream not sorted by submit time (job %d at %v after %v)",
				j.ID, j.Submit, s.lastSubmit)
		}
		s.lastSubmit = j.Submit
	}
	s.fedJobs++
	if _, err := s.engine.Schedule(j.Submit, sim.EvArrival, j); err != nil {
		return fmt.Errorf("sched: scheduling arrival of job %d: %w", j.ID, err)
	}
	return nil
}

func (s *System) dispatch(ev sim.Event) {
	now := s.engine.Now()
	switch ev.Kind {
	case sim.EvArrival:
		s.queue = append(s.queue, ev.Payload.(*workload.Job))
		// Replenish the event heap with the next stream arrival before
		// the pass runs; a validation or source failure aborts the run
		// (SimulateSource surfaces the error after the engine stops).
		if err := s.feedArrival(); err != nil {
			s.srcErr = err
			s.engine.Stop()
			return
		}
		s.pass(now)
	case sim.EvEnd:
		s.finish(ev.Payload.(*RunState), now)
		s.pass(now)
	}
	if o, ok := s.cfg.Recorder.(PassObserver); ok {
		o.PassEnd(now, len(s.queue), s.cl.Busy())
	}
}

// fail records a scheduler invariant violation and stops the engine; the
// run surfaces the first one through Simulate/SimulateSource's error
// return instead of crashing the process.
func (s *System) fail(err error) {
	if s.invErr == nil {
		s.invErr = err
	}
	s.engine.Stop()
}

// aboveTop fails the run when the gear policy's method returned a gear
// faster than the top gear, which GearPolicy's contract rules out (the
// backfill scans skip candidates the top gear cannot start), and reports
// whether it did. A NaN frequency counts as above.
func (s *System) aboveTop(j *workload.Job, g dvfs.Gear, method string) bool {
	top := s.cfg.Gears.Top()
	if g.Freq <= top.Freq {
		return false
	}
	s.fail(fmt.Errorf("sched: %s %s chose gear %v for job %d, faster than the top gear %v",
		s.cfg.Policy.Name(), method, g, j.ID, top))
	return true
}

// PassObserver is an optional extension of Recorder: implementations
// receive a system-state sample (wait-queue depth, busy processors) after
// every scheduling pass, enabling utilization and backlog time series.
type PassObserver interface {
	PassEnd(now float64, queued, busy int)
}

// pass is one scheduling cycle: start queue heads while they fit, then
// apply the variant's lookahead (reservation + backfilling for EASY,
// nothing for FCFS, full replanning for conservative).
func (s *System) pass(now float64) {
	if s.cfg.Order == SJFOrder {
		// Shortest requested time first, ties by arrival. Sorting the
		// queue itself makes the discipline apply to head starts,
		// reservations and the backfill scan alike.
		sort.SliceStable(s.queue, func(a, b int) bool {
			if s.queue[a].ReqTime != s.queue[b].ReqTime {
				return s.queue[a].ReqTime < s.queue[b].ReqTime
			}
			return s.queue[a].ID < s.queue[b].ID
		})
	}
	if s.cfg.Variant == Conservative {
		s.profilePass(now, len(s.queue))
		return
	}
	if s.cfg.Variant == EASY && s.cfg.Reservations > 1 {
		s.profilePass(now, s.cfg.Reservations)
		return
	}
	// Start queue heads in place, then shift the remainder to the front:
	// the queue's capacity stays anchored at index 0, so arrival appends
	// reuse it instead of allocating.
	started := 0
	for started < len(s.queue) && s.queue[started].Procs <= s.cl.FreeCount() {
		j := s.queue[started]
		started++
		g := s.cfg.Policy.ReserveGear(j, now, now, len(s.queue)-started)
		if s.aboveTop(j, g, "ReserveGear") || !s.start(j, g, now) {
			return
		}
	}
	if started > 0 {
		n := copy(s.queue, s.queue[started:])
		for i := n; i < len(s.queue); i++ {
			s.queue[i] = nil
		}
		s.queue = s.queue[:n]
	}
	if len(s.queue) == 0 || s.cfg.Variant == FCFS {
		s.controlPass(now)
		return
	}

	// EASY backfilling. The head cannot start; compute its shadow time
	// (reservation start) and the extra processors not needed by it.
	// Surviving jobs are filtered into the queue's own backing array
	// (writes always trail reads), so a pass allocates nothing.
	head := s.queue[0]
	bf := &s.bf
	bf.now = now
	bf.shadow, bf.extra = s.shadow(head, now)
	free := s.cl.FreeCount()
	kept := s.queue[:1]
	qlen := len(s.queue)
	top := s.cfg.Gears.Top()
	for _, j := range s.queue[1:] {
		started := false
		// A candidate the top gear cannot start is not asked: no gear
		// may be faster (GearPolicy's contract), and with β ≥ 0 no
		// slower one finishes sooner.
		bf.j = j
		if j.Procs <= free && bf.easy(top) {
			g, ok := s.cfg.Policy.BackfillGear(j, now, qlen-1, s.bfEasy)
			if ok && s.aboveTop(j, g, "BackfillGear") {
				return
			}
			if ok && bf.easy(g) {
				if !s.start(j, g, now) {
					return
				}
				free -= j.Procs
				if now+s.reqDur(j, g) > bf.shadow {
					bf.extra -= j.Procs
				}
				qlen--
				started = true
			}
		}
		if !started {
			kept = append(kept, j)
		}
	}
	s.setQueue(kept)
	s.controlPass(now)
}

// setQueue installs the filtered queue. kept usually aliases the queue's
// backing array, so the abandoned tail is cleared to keep started jobs
// from lingering behind the slice length.
func (s *System) setQueue(kept []*workload.Job) {
	for i := len(kept); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = kept
}

// backfillCheck answers GearPolicy.BackfillGear's feasibility question
// for the candidate of a backfill scan: may j start now at gear g without
// disturbing any reservation? The scan sets the fields before each
// BackfillGear call; System.bfEasy and System.bfProfile are the method
// values policies receive.
type backfillCheck struct {
	s   *System
	j   *workload.Job
	now float64
	// shadow and extra are the EASY head's reservation start and the
	// processors it leaves over there.
	shadow float64
	extra  int
	// prof is the replanning pass's availability profile.
	prof *profile.Profile
}

// easy is the single-reservation check: the backfill must not delay the
// head, so either it completes (by its kill limit) before the shadow
// time, or it fits into the processors the head leaves over.
func (c *backfillCheck) easy(g dvfs.Gear) bool {
	return c.now+c.s.reqDur(c.j, g) <= c.shadow || c.j.Procs <= c.extra
}

// fits is the replanning check: the immediate start must fit the
// availability profile, reservations included.
func (c *backfillCheck) fits(g dvfs.Gear) bool {
	return c.prof.CanPlace(c.j.Procs, c.now, c.s.reqDur(c.j, g))
}

// resvInfo records one retained reservation: the inputs that planned it
// (the top-gear earliest start fed to ReserveGear and the gear it chose)
// and the resulting slot start, so the next pass can prove a fresh replan
// would reproduce the reservation verbatim before reusing it. blocked
// holds the violated stretches the chosen gear's sweep crossed before
// the slot, as the completion credits cleanPrefix applied since have
// left them; credited notes a credit since the last proof. The chosen
// gear's sweep has the top gear's level and runs at least as far, so
// blocked serves the top-gear estimate too.
type resvInfo struct {
	job      *workload.Job
	est      float64
	start    float64
	gear     dvfs.Gear
	blocked  profile.Blocking
	credited bool
}

// credit is one completion's hand-back, queued for the retained
// reservations' blocking: cpus processors freed over [from, to).
type credit struct {
	cpus     int
	from, to float64
}

// profilePass replans the queue against an availability profile. The
// first maxRes blocked jobs receive reservations (placed in queue order,
// never delaying an earlier one); the rest may only start immediately, and
// only if that disturbs no reservation. maxRes = len(queue) yields
// conservative backfilling; small maxRes yields "flexible" EASY variants
// protecting the first K queued jobs.
//
// The profile persists across passes: the base skyline is kept current
// incrementally and the leading run of reservations whose replan provably
// reproduces them is reused verbatim. A pass then costs one gear-policy
// re-ask per retained reservation and a blocking replay per credited one
// (the reuse proof) plus full replanning of the changed suffix.
func (s *System) profilePass(now float64, maxRes int) {
	prof := s.persistentProfile(now)
	resume := s.cleanPrefix(now, maxRes)
	s.replanned += max(len(s.resvMeta)-resume, 0)
	prof.TruncateReservations(resume)
	s.truncResvMeta(resume)
	kept := s.queue[:resume]
	qlen := len(s.queue)
	reserved := resume
	bf := &s.bf
	bf.now, bf.prof = now, prof
	top := s.cfg.Gears.Top()
	for _, j := range s.queue[resume:] {
		if reserved < maxRes {
			// Reservation (or immediate start): the gear decision sees
			// the start the job would get at the top gear; the slot is
			// then recomputed with the chosen gear's dilated duration,
			// unless that duration is the top gear's: nothing touched the
			// profile in between, so the answer would be est again. The
			// sweep that finds the slot records its blocking.
			rec := s.spareBlocking()
			dTop := s.reqDur(j, top)
			est := prof.EarliestStartBlocked(j.Procs, dTop, now, rec)
			g := s.cfg.Policy.ReserveGear(j, est, now, qlen-1)
			if s.aboveTop(j, g, "ReserveGear") {
				return
			}
			d, st := s.reqDur(j, g), est
			if d != dTop {
				*rec = (*rec)[:0]
				st = prof.EarliestStartBlocked(j.Procs, d, now, rec)
			}
			if st <= now {
				if !s.start(j, g, now) { // registers its own occupancy
					return
				}
				qlen--
			} else {
				prof.AddReservation(profile.Entry{Start: st, End: st + d, CPUs: j.Procs})
				s.resvMeta = append(s.resvMeta, resvInfo{job: j, est: est, start: st, gear: g, blocked: *rec})
				reserved++
				kept = append(kept, j)
			}
			continue
		}
		// Beyond the protected prefix: immediate backfill or nothing,
		// and as in the EASY scan only if the top gear fits.
		bf.j = j
		if bf.fits(top) {
			g, ok := s.cfg.Policy.BackfillGear(j, now, qlen-1, s.bfProfile)
			if ok && s.aboveTop(j, g, "BackfillGear") {
				return
			}
			if ok && bf.fits(g) {
				if !s.start(j, g, now) {
					return
				}
				qlen--
				continue
			}
		}
		kept = append(kept, j)
	}
	s.setQueue(kept)
	if s.profMut {
		// The base changed under the retained reservations in a way the
		// reuse proof doesn't cover (a gear switch, or under the
		// conservative analysis a start this pass): the next pass must
		// replan from the head.
		s.profClean = 0
		s.profMut = false
	} else {
		s.profClean = len(s.resvMeta)
	}
	s.controlPass(now)
}

// persistentProfile returns the across-pass availability profile, opening
// a fresh epoch when needed: on first use, when a cached release time has
// reached `now` (a fresh build would clamp it differently — the rare
// kill-limit-exact case), or when accumulated credit history outgrew the
// running set. An epoch load is O(running); every other pass reuses the
// profile as-is.
func (s *System) persistentProfile(now float64) *profile.Profile {
	if s.prof == nil {
		s.prof = profile.New(s.cl.Total())
	}
	ix := s.releaseIndex()
	minRel, hasRel := ix.min()
	if !s.profLive || (hasRel && minRel.t <= now) || s.prof.BaseDeltas() > 4*ix.len()+256 {
		s.profRels = ix.appendClamped(s.profRels[:0], now)
		s.prof.LoadReleases(s.cl.Total(), now, s.profRels)
		// Re-anchor the credit bookkeeping: completions must hand back
		// exactly the occupancy the epoch load recorded.
		for _, rs := range s.runList {
			if rs != nil {
				rs.profEnd = clampRelease(rs.PlannedEnd, now)
			}
		}
		s.profLive = true
		s.profMut = false
		s.profClean = 0
		s.truncResvMeta(0)
	}
	s.prof.BeginPass(now)
	return s.prof
}

// truncResvMeta drops the reservation metadata suffix, clearing the
// abandoned entries so completed jobs don't linger reachable behind the
// backing array's length (the same hygiene setQueue applies to the
// queue). Their blocking storage stays for the next reservations placed
// there.
func (s *System) truncResvMeta(n int) {
	for i := n; i < len(s.resvMeta); i++ {
		s.resvMeta[i] = resvInfo{blocked: s.resvMeta[i].blocked[:0]}
	}
	s.resvMeta = s.resvMeta[:n]
}

// spareBlocking returns the emptied blocking storage of the slot past the
// reservation metadata's end, where the next reservation's record goes.
// A slot's first use sizes it for a few stretches at once rather than
// growing it one append at a time.
func (s *System) spareBlocking() *profile.Blocking {
	n := len(s.resvMeta)
	if n == cap(s.resvMeta) {
		s.resvMeta = append(s.resvMeta, resvInfo{})[:n]
	}
	b := &s.resvMeta[:n+1][n].blocked
	if cap(*b) == 0 {
		*b = make(profile.Blocking, 0, 8)
	}
	*b = (*b)[:0]
	return b
}

// creditPlan queues a completion's processors, handed back over
// [from, to), for the blocking of every reservation the next pass may
// reuse. cleanPrefix applies the queue, in completion order, to each
// position it checks — the same Credit calls eager crediting would make
// there — so a reservation the pass drops unread is never credited.
func (s *System) creditPlan(cpus int, from, to float64) {
	if min(s.profClean, len(s.resvMeta)) > 0 {
		s.credits = append(s.credits, credit{cpus: cpus, from: from, to: to})
	}
}

// cleanPrefix returns how many leading queue positions keep their
// retained reservations verbatim this pass. A position is reusable when
// nothing its plan depends on can have changed: the base skyline is
// untouched in any way the proof does not cover (profMut — a gear
// switch, or under the conservative analysis any start; under the
// widened one a start's occupancy was validated against the full tier),
// every earlier position is reused, the queue still holds the same job
// there, its planning inputs are still in the future (est at or after
// now, start strictly after — otherwise the job must be considered for
// starting), a blocking credited since the last proof still blocks it,
// and the gear policy, re-asked at this pass's queue depth, still picks
// the same gear.
//
// Each checked position first receives the completion credits queued
// since the last pass (creditPlan), marking it for a replay when one
// lowered its blocking; the queue is emptied when the check ends, as
// every position past it is dropped. The blocking proof replays the
// sweep's rule over the stretches the credits left and requires exactly
// the recorded est at the top gear's duration and start at the chosen
// gear's. Credits only lower usage, validated starts cannot open a
// window and the earlier positions are reproduced, so each stretch left
// is still violated and the replay is a lower bound on a fresh sweep's
// answer; the chosen gear's window at start stays free, so a fresh
// sweep returns start again. The top-gear estimate comes out the same
// under credits alone, but added occupancy may have drifted it anywhere
// within [est, start] (it only delays the estimate, and never past the
// reservation start), so under the widened analysis the decision is
// re-asked at both interval ends — for an EstMonotonePolicy, unchanged
// at both endpoints means unchanged across the interval. The first position that fails dirties everything after
// it, which the caller replans.
func (s *System) cleanPrefix(now float64, maxRes int) int {
	limit := s.profClean
	if s.profMut {
		limit = 0
	}
	s.profMut = false
	if limit > len(s.resvMeta) {
		limit = len(s.resvMeta)
	}
	if limit > len(s.queue) {
		limit = len(s.queue)
	}
	if limit > maxRes {
		limit = maxRes
	}
	wq := len(s.queue) - 1
	top := s.cfg.Gears.Top()
	k := 0
	for k < limit {
		m := &s.resvMeta[k]
		if s.queue[k] != m.job || m.est < now || m.start <= now {
			break
		}
		for _, c := range s.credits {
			if m.blocked.Credit(c.cpus, c.from, c.to) {
				m.credited = true
			}
		}
		s.creditCalls += len(s.credits)
		if m.credited {
			d := s.reqDur(m.job, m.gear)
			if m.blocked.Earliest(d, now) != m.start {
				break
			}
			if dTop := s.reqDur(m.job, top); dTop != d && m.blocked.Earliest(dTop, now) != m.est {
				break
			}
			m.credited = false
		}
		if s.cfg.Policy.ReserveGear(m.job, m.est, now, wq) != m.gear {
			break
		}
		if s.profWiden && m.start != m.est &&
			s.cfg.Policy.ReserveGear(m.job, m.start, now, wq) != m.gear {
			break
		}
		k++
	}
	s.credits = s.credits[:0]
	return k
}

// newRunState pops a recycled RunState (keeping its Alloc.Runs and
// Phases capacity, contents cleared) or allocates a fresh one.
func (s *System) newRunState() *RunState {
	if n := len(s.rsPool); n > 0 {
		rs := s.rsPool[n-1]
		s.rsPool = s.rsPool[:n-1]
		runs, phases := rs.Alloc.Runs[:0], rs.Phases[:0]
		*rs = RunState{}
		rs.Alloc.Runs = runs
		rs.Phases = phases
		return rs
	}
	return &RunState{}
}

// start begins executing j at gear g immediately. It reports false after
// a scheduler invariant violation, which fail has recorded; the caller
// abandons the pass.
func (s *System) start(j *workload.Job, g dvfs.Gear, now float64) bool {
	rs := s.newRunState()
	if err := s.cl.AllocateInto(&rs.Alloc, j.Procs, now); err != nil {
		// The pass only starts jobs that fit; failure is a scheduler bug.
		s.fail(fmt.Errorf("sched: allocation invariant broken for job %d: %w", j.ID, err))
		return false
	}
	rs.Job = j
	rs.Gear = g
	rs.Start = now
	rs.PlannedEnd = now + s.reqDur(j, g)
	rs.ActualEnd = now + s.actDur(j, g)
	rs.phaseStart = now
	rs.Reduced = !s.cfg.Gears.IsTop(g)
	h, err := s.engine.Schedule(rs.ActualEnd, sim.EvEnd, rs)
	if err != nil {
		s.fail(fmt.Errorf("sched: scheduling completion of job %d: %w", j.ID, err))
		return false
	}
	rs.endEv = h
	s.relAdd(rs)
	if s.profLive {
		// Keep the persistent profile's base skyline current. Under the
		// conservative analysis the new occupancy invalidates retained
		// reservations (profMut); under the widened one it cannot — it was
		// feasibility-validated against the full tier including them, so
		// it neither delays a retained window nor opens an earlier one.
		// The clamp gives zero-duration jobs (ReqTime 0) a one-ulp
		// occupancy: they hold their processors at `now` itself, so later
		// placements in the same pass cannot over-commit the machine.
		if !s.profWiden {
			s.profMut = true
		}
		rs.profEnd = clampRelease(rs.PlannedEnd, now)
		s.prof.Add(profile.Entry{Start: now, End: rs.profEnd, CPUs: j.Procs})
	}
	rs.runIdx = len(s.runList)
	s.runList = append(s.runList, rs)
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.JobStarted(rs, now)
	}
	return true
}

// finish releases j's processors and closes its phase history. Removal
// from the run list is O(1): the slot is tombstoned and the list is
// compacted once tombstones outnumber live entries, preserving start
// order exactly (the property shadow and profilePass iterate under).
func (s *System) finish(rs *RunState, now float64) {
	if err := s.cl.Release(rs.Alloc, now); err != nil {
		s.fail(fmt.Errorf("sched: release invariant broken for job %d: %w", rs.Job.ID, err))
		return
	}
	if err := s.relRemove(rs); err != nil {
		// The release schedule lost this job (a corrupted PlannedEnd):
		// abort the run and surface the error rather than continuing on
		// an inconsistent schedule.
		s.fail(err)
		return
	}
	if s.profLive {
		// Hand the planned occupancy tail back to the persistent profile:
		// the job completed before its kill limit, so the skyline frees
		// its processors from now on instead of at the planned end. The
		// retained plan is credited the same processors rather than
		// invalidated.
		s.prof.Vacate(rs.Job.Procs, now, rs.profEnd)
		if !s.profMut {
			s.creditPlan(rs.Job.Procs, now, rs.profEnd)
		}
	}
	s.runList[rs.runIdx] = nil
	s.runNil++
	if s.runNil*2 > len(s.runList) {
		s.compactRunList()
	}
	// Close the open phase in place.
	if now > rs.phaseStart {
		rs.Phases = append(rs.Phases, Phase{Gear: rs.Gear, Dur: now - rs.phaseStart})
	}
	rs.phaseStart = now // the open phase is now empty
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.JobFinished(rs, now)
	}
	// The RunState is dead once its completion callbacks returned:
	// recycle it (recorders must not retain it past JobFinished).
	s.rsPool = append(s.rsPool, rs)
}

// SetGear switches a running job to gear g at time now, rescaling its
// remaining work under the β model and re-scheduling its completion. It
// implements the paper's future-work extension of dynamically raising
// frequencies of running jobs. Controllers call it from ControlPass.
// Recorders implementing GearObserver are notified after the switch. A
// switch the scheduler cannot honour (a completion it cannot
// reschedule, e.g. for a `now` in the past) aborts the run: Simulate
// returns the error.
func (s *System) SetGear(rs *RunState, g dvfs.Gear, now float64) {
	if g == rs.Gear {
		return
	}
	old := rs.Gear
	if err := s.relRemove(rs); err != nil { // the schedule holds the old PlannedEnd
		s.fail(err)
		return
	}
	oldCoef := s.Coef(rs.Job, rs.Gear)
	dur := now - rs.phaseStart
	if dur > 0 {
		rs.Phases = append(rs.Phases, Phase{Gear: rs.Gear, Dur: dur})
		rs.workDone += dur / oldCoef
		rs.reqDone += dur / oldCoef
	}
	rs.phaseStart = now
	rs.Gear = g
	newCoef := s.Coef(rs.Job, g)
	remWork := rs.Job.EffectiveRuntime() - rs.workDone
	if remWork < 0 {
		remWork = 0
	}
	remReq := rs.Job.ReqTime - rs.reqDone
	if remReq < 0 {
		remReq = 0
	}
	rs.ActualEnd = now + remWork*newCoef
	rs.PlannedEnd = now + remReq*newCoef
	s.engine.Cancel(rs.endEv)
	h, err := s.engine.Schedule(rs.ActualEnd, sim.EvEnd, rs)
	if err != nil {
		s.fail(fmt.Errorf("sched: rescheduling completion of job %d: %w", rs.Job.ID, err))
		return
	}
	rs.endEv = h
	s.relAdd(rs)
	if s.profLive {
		// Swap the job's planned occupancy for the re-geared one. The
		// added occupancy was never validated against the plan, so the
		// next pass replans from the head.
		s.profMut = true
		s.prof.Vacate(rs.Job.Procs, now, rs.profEnd)
		s.prof.Add(profile.Entry{Start: now, End: rs.PlannedEnd, CPUs: rs.Job.Procs})
		rs.profEnd = rs.PlannedEnd
	}
	if !s.cfg.Gears.IsTop(g) {
		rs.Reduced = true
	}
	if o, ok := s.cfg.Recorder.(GearObserver); ok {
		o.JobRegeared(rs, old, now)
	}
}
