package main

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/altpolicy"
	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workload"
)

// The traced run wraps the seams a scenario.Spec exposes — the workload
// factory, the gear policy, the power controller and an extra recorder —
// in timing forwarders. The benchmark's own files hold every wrapper, so
// the program under test is unchanged. Every wrapper forwards each
// optional interface its inner value implements (EstMonotonePolicy and
// PowerController on policies; ControllerCloner, Recorder and GearObserver
// on controllers; PtrSource on sources), because the scheduler changes
// behaviour on those assertions, and refuses a shape it cannot forward.

// seam identifies one timed call boundary.
type seam int

const (
	seamNext       seam = iota // workload: JobSource.Next / NextPtr
	seamReserve                // core: GearPolicy.ReserveGear
	seamBackfill               // core: GearPolicy.BackfillGear, with the feasibility callbacks it makes
	seamPolicyPass             // core: the policy's own per-pass hook
	seamControl                // altpolicy: the controller's ControlPass, with the gear switches it issues
	seamMeter                  // nodepower: the Recorder and GearObserver calls forwarded to the controller
	seamObserve                // bench: the traced run's own recorder (counters and cluster capture)
	seamMetrics                // metrics: a timed twin of the streaming collector
	numSeams
)

var seamNames = [numSeams]struct{ layer, op string }{
	seamNext:       {"workload", "next"},
	seamReserve:    {"core", "reserve_gear"},
	seamBackfill:   {"core", "backfill_gear"},
	seamPolicyPass: {"core", "control_pass"},
	seamControl:    {"altpolicy", "control_pass"},
	seamMeter:      {"nodepower", "meter_event"},
	seamObserve:    {"bench", "observe"},
	seamMetrics:    {"metrics", "record"},
}

// seamAgg aggregates one seam: calls, total and self nanoseconds (self
// excludes nested seams) and a histogram of call durations in powers of
// two nanoseconds (bucket b holds durations in [2^(b-1), 2^b)).
type seamAgg struct {
	Count int64     `json:"count"`
	Total int64     `json:"total_ns"`
	Self  int64     `json:"self_ns"`
	Hist  [40]int64 `json:"log2_ns_hist"`
}

func (a *seamAgg) add(d, self int64) {
	a.Count++
	a.Total += d
	a.Self += self
	b := bits.Len64(uint64(d))
	if b >= len(a.Hist) {
		b = len(a.Hist) - 1
	}
	a.Hist[b]++
}

func (a *seamAgg) merge(o seamAgg) {
	a.Count += o.Count
	a.Total += o.Total
	a.Self += o.Self
	for i := range a.Hist {
		a.Hist[i] += o.Hist[i]
	}
}

// layerStats is what the wrappers of one traced scenario record. A
// scenario executes on one goroutine at a time, so no locking is needed.
type layerStats struct {
	stack []int64 // per open seam: nanoseconds spent in seams nested inside it
	outer int64   // nanoseconds spent in outermost seams

	seams [numSeams]seamAgg

	feasibleCalls, backfillOK int64
	passes, blocked, queued   int64
	starts, regears           int64
	controlPasses, actuations int64
	peakEvents                int
	execNS, selfNS, execJobs  int64
	capture                   *clusterCapture
}

func (s *layerStats) enter() time.Time {
	s.stack = append(s.stack, 0)
	return time.Now()
}

func (s *layerStats) leave(id seam, t0 time.Time) {
	d := int64(time.Since(t0))
	n := len(s.stack) - 1
	child := s.stack[n]
	s.stack = s.stack[:n]
	s.seams[id].add(d, d-child)
	if n > 0 {
		s.stack[n-1] += d
	} else {
		s.outer += d
	}
}

// merge adds o's counters into s.
func (s *layerStats) merge(o *layerStats) {
	for i := range s.seams {
		s.seams[i].merge(o.seams[i])
	}
	s.feasibleCalls += o.feasibleCalls
	s.backfillOK += o.backfillOK
	s.passes += o.passes
	s.blocked += o.blocked
	s.queued += o.queued
	s.starts += o.starts
	s.regears += o.regears
	s.controlPasses += o.controlPasses
	s.actuations += o.actuations
	if o.peakEvents > s.peakEvents {
		s.peakEvents = o.peakEvents
	}
	s.execNS += o.execNS
	s.selfNS += o.selfNS
	s.execJobs += o.execJobs
}

// timedSource times every Next call of a workload cursor.
type timedSource struct {
	inner workload.JobSource
	st    *layerStats
}

func (s *timedSource) Name() string { return s.inner.Name() }
func (s *timedSource) CPUs() int    { return s.inner.CPUs() }
func (s *timedSource) Reset() error { return s.inner.Reset() }
func (s *timedSource) Err() error   { return s.inner.Err() }

// Len forwards workload.Counted; -1 is the scenario layer's "unknown".
func (s *timedSource) Len() int {
	if c, ok := s.inner.(workload.Counted); ok {
		return c.Len()
	}
	return -1
}

func (s *timedSource) Next() (workload.Job, bool) {
	t0 := s.st.enter()
	j, ok := s.inner.Next()
	s.st.leave(seamNext, t0)
	return j, ok
}

// timedPtrSource forwards the stable-pointer fast path of arena cursors.
type timedPtrSource struct {
	*timedSource
	ptr workload.PtrSource
}

func (s timedPtrSource) NextPtr() (*workload.Job, bool) {
	t0 := s.st.enter()
	j, ok := s.ptr.NextPtr()
	s.st.leave(seamNext, t0)
	return j, ok
}

// wrapSource times src, keeping its PtrSource fast path.
func wrapSource(src workload.JobSource, st *layerStats) workload.JobSource {
	t := &timedSource{inner: src, st: st}
	if p, ok := src.(workload.PtrSource); ok {
		return timedPtrSource{t, p}
	}
	return t
}

// timedPolicy times a gear policy's decisions and counts the feasibility
// callbacks of its backfill decisions.
type timedPolicy struct {
	inner sched.GearPolicy
	st    *layerStats
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) ReserveGear(j *workload.Job, start, now float64, wqOthers int) dvfs.Gear {
	t0 := p.st.enter()
	g := p.inner.ReserveGear(j, start, now, wqOthers)
	p.st.leave(seamReserve, t0)
	return g
}

func (p *timedPolicy) BackfillGear(j *workload.Job, now float64, wqOthers int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	st := p.st
	counted := func(g dvfs.Gear) bool {
		st.feasibleCalls++
		return feasible(g)
	}
	t0 := st.enter()
	g, ok := p.inner.BackfillGear(j, now, wqOthers, counted)
	st.leave(seamBackfill, t0)
	if ok {
		st.backfillOK++
	}
	return g, ok
}

// monoPolicy forwards sched.EstMonotonePolicy, which widens conservative
// backfilling's reservation reuse.
type monoPolicy struct{ *timedPolicy }

func (monoPolicy) EstMonotone() {}

// monoCtrlPolicy forwards sched.EstMonotonePolicy and the policy's own
// sched.PowerController hook (core.Policy carries the dynamic boost there).
type monoCtrlPolicy struct {
	*timedPolicy
	ctrl sched.PowerController
}

func (monoCtrlPolicy) EstMonotone() {}

func (p monoCtrlPolicy) Bind(sys *sched.System) { p.ctrl.Bind(sys) }

func (p monoCtrlPolicy) ControlPass(sys *sched.System, now float64) {
	t0 := p.st.enter()
	p.ctrl.ControlPass(sys, now)
	p.st.leave(seamPolicyPass, t0)
}

// wrapPolicy times p. Policies that clone per execution are refused: a
// forwarder could not clone its timing state with them.
func wrapPolicy(p sched.GearPolicy, st *layerStats) (sched.GearPolicy, error) {
	t := &timedPolicy{inner: p, st: st}
	_, mono := p.(sched.EstMonotonePolicy)
	ctrl, isCtrl := p.(sched.PowerController)
	_, cloner := p.(sched.PolicyCloner)
	switch {
	case cloner:
	case mono && isCtrl:
		return monoCtrlPolicy{t, ctrl}, nil
	case mono:
		return monoPolicy{t}, nil
	case !isCtrl:
		return t, nil
	}
	return nil, fmt.Errorf("no tracing wrapper forwards the interfaces of gear policy %s", p.Name())
}

// meteredController is the shape of altpolicy.PowerCap: a controller that
// clones per execution and meters the run through the recorder seams.
type meteredController interface {
	sched.PowerController
	sched.ControllerCloner
	sched.Recorder
	sched.GearObserver
}

// timedController times a metered controller's passes and its meter
// events, forwarding all four of its interfaces.
type timedController struct {
	inner meteredController
	st    *layerStats
}

func wrapController(c sched.PowerController, st *layerStats) (sched.PowerController, error) {
	m, ok := c.(meteredController)
	if !ok {
		return nil, fmt.Errorf("no tracing wrapper forwards the interfaces of controller %s", c.Name())
	}
	return &timedController{inner: m, st: st}, nil
}

func (c *timedController) Name() string           { return c.inner.Name() }
func (c *timedController) Bind(sys *sched.System) { c.inner.Bind(sys) }

func (c *timedController) ControlPass(sys *sched.System, now float64) {
	t0 := c.st.enter()
	c.inner.ControlPass(sys, now)
	c.st.leave(seamControl, t0)
}

// CloneController implements sched.ControllerCloner: the clone times into
// the same stats, and the inner clone keeps per-execution state apart.
func (c *timedController) CloneController() sched.PowerController {
	clone := c.inner.CloneController()
	if m, ok := clone.(meteredController); ok {
		return &timedController{inner: m, st: c.st}
	}
	return clone
}

func (c *timedController) JobStarted(rs *sched.RunState, now float64) {
	t0 := c.st.enter()
	c.inner.JobStarted(rs, now)
	c.st.leave(seamMeter, t0)
}

func (c *timedController) JobFinished(rs *sched.RunState, now float64) {
	t0 := c.st.enter()
	c.inner.JobFinished(rs, now)
	c.st.leave(seamMeter, t0)
}

func (c *timedController) JobRegeared(rs *sched.RunState, old dvfs.Gear, now float64) {
	t0 := c.st.enter()
	c.inner.JobRegeared(rs, old, now)
	c.st.leave(seamMeter, t0)
}

// capReport returns the power-cap report of an execution's controller,
// looking through the tracing wrapper.
func capReport(c sched.PowerController) (altpolicy.CapReport, bool) {
	if t, ok := c.(*timedController); ok {
		c = t.inner
	}
	pc, ok := c.(*altpolicy.PowerCap)
	if !ok {
		return altpolicy.CapReport{}, false
	}
	return pc.Report(), true
}

// observer is the traced run's extra recorder. It counts passes, blocked
// passes, queue depth, starts and gear switches, captures the cluster's
// allocation stream, and feeds a timed twin of the metrics collector whose
// summary must match the execution's Results.
type observer struct {
	st   *layerStats
	twin *metrics.Collector
}

func (o *observer) JobStarted(rs *sched.RunState, now float64) {
	t0 := o.st.enter()
	o.st.starts++
	o.st.capture.started(rs.Job.ID, rs.Job.Procs, rs.Alloc.Runs, now)
	t1 := o.st.enter()
	o.twin.JobStarted(rs, now)
	o.st.leave(seamMetrics, t1)
	o.st.leave(seamObserve, t0)
}

func (o *observer) JobFinished(rs *sched.RunState, now float64) {
	t0 := o.st.enter()
	o.st.capture.finished(rs.Job.ID, now)
	t1 := o.st.enter()
	o.twin.JobFinished(rs, now)
	o.st.leave(seamMetrics, t1)
	o.st.leave(seamObserve, t0)
}

func (o *observer) JobRegeared(rs *sched.RunState, old dvfs.Gear, now float64) {
	o.st.regears++
}

func (o *observer) PassEnd(now float64, queued, busy int) {
	o.st.passes++
	o.st.queued += int64(queued)
	if queued > 0 {
		o.st.blocked++
	}
}

// clusterEvent is one captured start (procs > 0, with the processor runs
// the scheduler's cluster handed out) or finish.
type clusterEvent struct {
	now   float64
	id    int
	procs int
	runs  []cluster.Run
}

// clusterCapture records the first limit start/finish events of one
// execution, so the cluster layer can be replayed alone from them. A nil
// capture records nothing.
type clusterCapture struct {
	events []clusterEvent
	limit  int
}

func (c *clusterCapture) started(id, procs int, runs []cluster.Run, now float64) {
	if c == nil || len(c.events) >= c.limit {
		return
	}
	own := make([]cluster.Run, len(runs))
	copy(own, runs)
	c.events = append(c.events, clusterEvent{now: now, id: id, procs: procs, runs: own})
}

func (c *clusterCapture) finished(id int, now float64) {
	if c == nil || len(c.events) >= c.limit {
		return
	}
	c.events = append(c.events, clusterEvent{now: now, id: id})
}

// clusterReplay is the cost of the cluster layer replayed alone.
type clusterReplay struct {
	allocs, releases   int64
	allocNS, releaseNS int64
	runs               int64
	mismatches         int
}

// replay drives a fresh cluster through the captured stream, timing each
// allocation and release and checking every allocation reproduces the runs
// the scheduler's own cluster produced.
func (c *clusterCapture) replay(cpus int, sel cluster.Selection) (clusterReplay, error) {
	var r clusterReplay
	cl, err := cluster.NewWithSelection(cpus, sel)
	if err != nil {
		return r, err
	}
	live := make(map[int]cluster.Alloc)
	var spare [][]cluster.Run
	for _, ev := range c.events {
		if ev.procs == 0 {
			a, ok := live[ev.id]
			if !ok {
				continue // started before the capture window
			}
			delete(live, ev.id)
			t0 := time.Now()
			err := cl.Release(a, ev.now)
			r.releaseNS += int64(time.Since(t0))
			if err != nil {
				return r, fmt.Errorf("cluster replay: releasing job %d: %w", ev.id, err)
			}
			r.releases++
			spare = append(spare, a.Runs[:0])
			continue
		}
		var a cluster.Alloc
		if n := len(spare); n > 0 {
			a.Runs, spare = spare[n-1], spare[:n-1]
		}
		t0 := time.Now()
		err := cl.AllocateInto(&a, ev.procs, ev.now)
		r.allocNS += int64(time.Since(t0))
		if err != nil {
			return r, fmt.Errorf("cluster replay: allocating job %d: %w", ev.id, err)
		}
		r.allocs++
		r.runs += int64(len(a.Runs))
		if !sameRuns(a.Runs, ev.runs) {
			r.mismatches++
		}
		live[ev.id] = a
	}
	return r, nil
}

func sameRuns(a, b []cluster.Run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
