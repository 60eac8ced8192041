package sched

import (
	"math"
	"slices"
	"sort"

	"repro/internal/dvfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// refSim is the test-only reference simulator: the differential oracle
// the production scheduler must match exactly, start and end time of
// every job. It implements the same scheduling rules as System with every
// optimization traded for obviousness:
//
//   - a linear-scan event list keyed like the engine, by (T, Kind, seq);
//   - free-CPU counts instead of processor IDs;
//   - an EASY shadow that sorts the clamped releases on every pass;
//   - a conservative/flexible pass that rebuilds an entry-list profile
//     from the running jobs on every pass and never reuses reservations;
//   - EarliestStart computed by trying `from` and every entry end.
//
// Per-pass controllers are regearRules, hosted here the same way
// ruleController hosts them on System.
type refSim struct {
	cfg   Config
	rules []regearRule // run in order after every pass

	now     float64
	seq     int
	events  []*refEvent
	queue   []*workload.Job
	running []*refJob // start order
	free    int

	starts, ends map[int]float64
}

// refEvent is one pending event. Completions point at their job.
type refEvent struct {
	t    float64
	kind sim.EventKind
	seq  int
	job  *workload.Job
	run  *refJob
}

// refJob is one running job: its gear and the β-model bookkeeping SetGear
// rescales (the same arithmetic System applies).
type refJob struct {
	job                   *workload.Job
	gear                  dvfs.Gear
	plannedEnd, actualEnd float64
	phaseStart            float64
	workDone, reqDone     float64
	end                   *refEvent
}

// newRefSim builds a reference simulator for cfg (Recorder and Controller
// are ignored: controllers are passed as rules). A policy implementing
// ruledPolicy contributes its rule first, as System runs a policy's own
// hook before Config.Controller.
func newRefSim(cfg Config, ctrl regearRule) *refSim {
	r := &refSim{cfg: cfg, free: cfg.CPUs, starts: map[int]float64{}, ends: map[int]float64{}}
	if rp, ok := cfg.Policy.(ruledPolicy); ok {
		r.rules = append(r.rules, rp.rule())
	}
	if ctrl != nil {
		r.rules = append(r.rules, ctrl)
	}
	return r
}

func (r *refSim) schedule(t float64, kind sim.EventKind, job *workload.Job, run *refJob) *refEvent {
	ev := &refEvent{t: t, kind: kind, seq: r.seq, job: job, run: run}
	r.seq++
	r.events = append(r.events, ev)
	return ev
}

func (r *refSim) cancel(ev *refEvent) {
	for i, e := range r.events {
		if e == ev {
			r.events = append(r.events[:i], r.events[i+1:]...)
			return
		}
	}
}

// run replays the trace's jobs, which it schedules upfront in trace order
// (equal submits keep that order through the seq key).
func (r *refSim) run(jobs []*workload.Job) {
	for _, j := range jobs {
		r.schedule(j.Submit, sim.EvArrival, j, nil)
	}
	for len(r.events) > 0 {
		m := 0
		for i, e := range r.events {
			b := r.events[m]
			if e.t < b.t || (e.t == b.t && (e.kind < b.kind || (e.kind == b.kind && e.seq < b.seq))) {
				m = i
			}
		}
		ev := r.events[m]
		r.events = append(r.events[:m], r.events[m+1:]...)
		r.now = ev.t
		if ev.kind == sim.EvArrival {
			r.queue = append(r.queue, ev.job)
		} else {
			r.finish(ev.run)
		}
		r.pass()
	}
}

func (r *refSim) coef(j *workload.Job, g dvfs.Gear) float64 {
	return r.cfg.TimeModel.CoefWithBeta(j.Beta, g)
}

func (r *refSim) reqDur(j *workload.Job, g dvfs.Gear) float64 { return j.ReqTime * r.coef(j, g) }

func (r *refSim) start(j *workload.Job, g dvfs.Gear) {
	rj := &refJob{job: j, gear: g, phaseStart: r.now,
		plannedEnd: r.now + r.reqDur(j, g),
		actualEnd:  r.now + j.EffectiveRuntime()*r.coef(j, g)}
	rj.end = r.schedule(rj.actualEnd, sim.EvEnd, nil, rj)
	r.free -= j.Procs
	r.running = append(r.running, rj)
	r.starts[j.ID] = r.now
}

func (r *refSim) finish(rj *refJob) {
	r.free += rj.job.Procs
	for i, x := range r.running {
		if x == rj {
			r.running = append(r.running[:i], r.running[i+1:]...)
			break
		}
	}
	r.ends[rj.job.ID] = r.now
}

// setGear switches a running job's gear, rescaling its remaining work
// under the β model and rescheduling its completion.
func (r *refSim) setGear(rj *refJob, g dvfs.Gear) {
	oldCoef := r.coef(rj.job, rj.gear)
	if dur := r.now - rj.phaseStart; dur > 0 {
		rj.workDone += dur / oldCoef
		rj.reqDone += dur / oldCoef
	}
	rj.phaseStart = r.now
	rj.gear = g
	newCoef := r.coef(rj.job, g)
	remWork := math.Max(0, rj.job.EffectiveRuntime()-rj.workDone)
	remReq := math.Max(0, rj.job.ReqTime-rj.reqDone)
	rj.actualEnd = r.now + remWork*newCoef
	rj.plannedEnd = r.now + remReq*newCoef
	r.cancel(rj.end)
	rj.end = r.schedule(rj.actualEnd, sim.EvEnd, nil, rj)
}

func (r *refSim) control() {
	for _, rule := range r.rules {
		for _, rj := range r.running {
			if g := rule(len(r.queue), rj.gear); g != rj.gear {
				r.setGear(rj, g)
			}
		}
	}
}

func (r *refSim) pass() {
	if r.cfg.Order == SJFOrder {
		sort.SliceStable(r.queue, func(a, b int) bool {
			if r.queue[a].ReqTime != r.queue[b].ReqTime {
				return r.queue[a].ReqTime < r.queue[b].ReqTime
			}
			return r.queue[a].ID < r.queue[b].ID
		})
	}
	switch {
	case r.cfg.Variant == Conservative:
		r.profilePass(len(r.queue))
		return
	case r.cfg.Variant == EASY && r.cfg.Reservations > 1:
		r.profilePass(r.cfg.Reservations)
		return
	}
	for len(r.queue) > 0 && r.queue[0].Procs <= r.free {
		j := r.queue[0]
		r.queue = r.queue[1:]
		r.start(j, r.cfg.Policy.ReserveGear(j, r.now, r.now, len(r.queue)))
	}
	if len(r.queue) == 0 || r.cfg.Variant == FCFS {
		r.control()
		return
	}
	head := r.queue[0]
	shadow, extra := r.shadow(head)
	kept := []*workload.Job{head}
	qlen := len(r.queue)
	for _, j := range r.queue[1:] {
		if j.Procs <= r.free {
			feasible := func(g dvfs.Gear) bool {
				return r.now+r.reqDur(j, g) <= shadow || j.Procs <= extra
			}
			if g, ok := r.cfg.Policy.BackfillGear(j, r.now, qlen-1, feasible); ok && feasible(g) {
				r.start(j, g)
				if r.now+r.reqDur(j, g) > shadow {
					extra -= j.Procs
				}
				qlen--
				continue
			}
		}
		kept = append(kept, j)
	}
	r.queue = kept
	r.control()
}

// shadow sorts the running jobs' clamped planned ends and sweeps them
// until the head fits, then absorbs every release at the shadow instant.
func (r *refSim) shadow(head *workload.Job) (float64, int) {
	rels := make([]release, 0, len(r.running))
	for _, rj := range r.running {
		rels = append(rels, release{t: clampRelease(rj.plannedEnd, r.now), cpus: rj.job.Procs, id: rj.job.ID})
	}
	sort.Slice(rels, func(a, b int) bool {
		if rels[a].t != rels[b].t {
			return rels[a].t < rels[b].t
		}
		return rels[a].id < rels[b].id
	})
	avail, shadowT, i := r.free, r.now, 0
	for ; i < len(rels) && avail < head.Procs; i++ {
		avail += rels[i].cpus
		shadowT = rels[i].t
	}
	for ; i < len(rels) && rels[i].t == shadowT; i++ {
		avail += rels[i].cpus
	}
	return shadowT, avail - head.Procs
}

// profilePass replans from scratch: the running jobs' occupancies from
// now to their clamped planned ends, then one entry per placement.
func (r *refSim) profilePass(maxRes int) {
	prof := &refProfile{total: r.cfg.CPUs}
	for _, rj := range r.running {
		prof.add(r.now, clampRelease(rj.plannedEnd, r.now), rj.job.Procs)
	}
	kept := []*workload.Job{}
	qlen := len(r.queue)
	reserved := 0
	for _, j := range r.queue {
		if reserved < maxRes {
			est := prof.earliest(j.Procs, r.reqDur(j, r.cfg.Gears.Top()), r.now)
			g := r.cfg.Policy.ReserveGear(j, est, r.now, qlen-1)
			d := r.reqDur(j, g)
			if st := prof.earliest(j.Procs, d, r.now); st > r.now {
				prof.add(st, st+d, j.Procs)
				reserved++
				kept = append(kept, j)
				continue
			}
			r.start(j, g)
			qlen--
			prof.add(r.now, clampRelease(r.now+d, r.now), j.Procs)
			continue
		}
		feasible := func(g dvfs.Gear) bool {
			_, bad := prof.violation(j.Procs, r.now, r.reqDur(j, g))
			return !bad
		}
		if g, ok := r.cfg.Policy.BackfillGear(j, r.now, qlen-1, feasible); ok && feasible(g) {
			r.start(j, g)
			qlen--
			prof.add(r.now, clampRelease(r.now+r.reqDur(j, g), r.now), j.Procs)
			continue
		}
		kept = append(kept, j)
	}
	r.queue = kept
	r.control()
}

// refProfile is the reference's availability profile: the usage changes
// of an entry list, inserted in time order, with the usage after each
// change recomputed on every insert.
type refProfile struct {
	total int
	ts    []float64 // change times, nondecreasing
	ds    []int     // change amounts
	used  []int     // used[i] = ds[0] + ... + ds[i]
}

// add records cpus processors busy during [start, end); degenerate
// entries occupy nothing.
func (p *refProfile) add(start, end float64, cpus int) {
	if end <= start {
		return
	}
	p.insert(start, cpus)
	p.insert(end, -cpus)
	p.used = p.used[:0]
	u := 0
	for _, d := range p.ds {
		u += d
		p.used = append(p.used, u)
	}
}

func (p *refProfile) insert(t float64, d int) {
	i := sort.Search(len(p.ts), func(k int) bool { return p.ts[k] > t })
	p.ts = slices.Insert(p.ts, i, t)
	p.ds = slices.Insert(p.ds, i, d)
}

// after returns the index of the first change later than t.
func (p *refProfile) after(t float64) int {
	return sort.Search(len(p.ts), func(k int) bool { return p.ts[k] > t })
}

// violation reports the first time at which a window of dur seconds from
// start leaves fewer than cpus processors free: start itself, or a change
// strictly inside the window. A non-positive dur checks start alone.
func (p *refProfile) violation(cpus int, start, dur float64) (float64, bool) {
	i := p.after(start)
	if i > 0 && p.used[i-1]+cpus > p.total {
		return start, true
	}
	for ; i < len(p.ts) && p.ts[i]-start < dur; i++ {
		// The last change at a shared time carries the usage from it on.
		if (i+1 == len(p.ts) || p.ts[i+1] != p.ts[i]) && p.used[i]+cpus > p.total {
			return p.ts[i], true
		}
	}
	return 0, false
}

// earliest tries from and then every change time after it in increasing
// order; usage only falls at entry ends, so the earliest feasible start
// is from or one of them. A candidate whose window fails at time v rules
// out every candidate up to v, whose windows all contain it.
func (p *refProfile) earliest(cpus int, dur, from float64) float64 {
	if cpus > p.total {
		return math.Inf(1)
	}
	c := from
	for {
		v, bad := p.violation(cpus, c, dur)
		if !bad {
			return c
		}
		c = p.ts[p.after(v)] // the machine empties at the last change, so one fits
	}
}

// regearRule is a per-pass controller decision written once and hosted by
// both simulators: after every pass each running job, in start order, is
// asked for the gear it should run at given the queue depth, and a
// changed answer becomes a SetGear.
type regearRule func(queued int, cur dvfs.Gear) dvfs.Gear

// apply hosts the rule on the production scheduler.
func (rule regearRule) apply(sys *System, now float64) {
	for _, rs := range sys.Running() {
		if g := rule(sys.QueueLen(), rs.Gear); g != rs.Gear {
			sys.SetGear(rs, g, now)
		}
	}
}

// ruleController hosts a regearRule on System's controller seam.
type ruleController struct{ rule regearRule }

func (ruleController) Name() string                           { return "rule" }
func (ruleController) Bind(*System)                           {}
func (c ruleController) ControlPass(sys *System, now float64) { c.rule.apply(sys, now) }

// ruledPolicy is a gear policy whose own per-pass hook is a regearRule,
// so the reference can host it too.
type ruledPolicy interface {
	rule() regearRule
}

// clampRule drives SetGear in both directions: with a long queue it
// raises every running job to the top gear, with an empty one it clamps
// every running job down to the lowest gear.
func clampRule(gears dvfs.GearSet) regearRule {
	return func(queued int, cur dvfs.Gear) dvfs.Gear {
		switch {
		case queued >= 4:
			return gears.Top()
		case queued == 0:
			return gears[0]
		}
		return cur
	}
}

// boostRule raises every running job to the top gear whenever more than
// two jobs wait — the paper's dynamic boost shape.
func boostRule(gears dvfs.GearSet) regearRule {
	return func(queued int, cur dvfs.Gear) dvfs.Gear {
		if queued > 2 {
			return gears.Top()
		}
		return cur
	}
}
