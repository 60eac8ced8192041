package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/altpolicy"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sweep"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// Set-up runs at least setupReps times and until setupBudget seconds are
// spent; the median is reported, so one slow set-up (a cold page cache, a
// GC) does not move setup_s.
const (
	setupReps   = 7
	setupBudget = 1.0
)

// replayWorkers is the sweep pool's size. One worker leaves the second
// CPU of a two-CPU host to the garbage collector and everything else the
// host runs: with two workers, paper-grid's rounds on one seed took from
// 110k to 151k jobs/s from run to run, with one they agreed within 3%.
const replayWorkers = 1

// captureLimit bounds the cluster events a traced run records for the
// cluster replay, summed over a workload's simulations.
const captureLimit = 400_000

// paperPolicy is the paper's headline configuration, BSLD 2 / WQ 16.
var paperPolicy = scenario.PolicyConfig{BSLDThr: 2, WQThr: 16}

// replayDef is one replay workload: the simulations one round executes.
type replayDef struct {
	name   string
	inputs func(o options) ([]simInput, error)
}

var replayDefs = []replayDef{
	{"paper-grid", paperGridInputs},
	{"dvfs-queue", seededInputs("Million", 8_000, 2048, 12, scenario.Spec{Policy: paperPolicy})},
	{"thunder-conservative", seededInputs("LLNLThunder", 1_000, 0, 384,
		scenario.Spec{Variant: "conservative", Policy: paperPolicy})},
}

// timedRounds calls round until budget seconds are spent. It starts
// another round only while more than half the last one's time is left,
// so a run overshoots its budget by at most half a round; it runs at
// least minRounds. It returns each round's wall time in seconds.
func timedRounds(budget float64, minRounds int, round func() (time.Duration, error)) ([]float64, error) {
	var walls []float64
	start := time.Now()
	for {
		wall, err := round()
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall.Seconds())
		if len(walls) >= minRounds && budget-time.Since(start).Seconds() < wall.Seconds()/2 {
			return walls, nil
		}
	}
}

// simInput is one simulation: a workload model and the data-level
// scenario around it.
type simInput struct {
	label       string
	model       wgen.Model
	materialize bool          // generate the trace once and share it, instead of streaming it
	spec        scenario.Spec // policy, controller, machine and variant; no workload fields
	grid        *experiments.Config
}

// seededInputs returns the inputs of a workload that replays `traces`
// distinct traces of one preset per round. Trace k of seed n uses the
// preset's own seed plus n·traces + k, so seed 0 starts from the pinned
// preset and no two seeds share a trace. cpus, when set, resizes the
// preset's machine; the generator scales arrivals with it, keeping the
// offered load.
func seededInputs(preset string, jobs, cpus, traces int, spec scenario.Spec) func(o options) ([]simInput, error) {
	return func(o options) ([]simInput, error) {
		m, err := wgen.Preset(preset)
		if err != nil {
			return nil, err
		}
		m.Jobs = jobs
		n := traces
		if o.quick {
			m.Jobs, n = jobs/100+500, 1
		}
		if cpus > 0 {
			m.CPUs = cpus
		}
		var ins []simInput
		for k := 0; k < n; k++ {
			mk := m
			mk.Seed += o.seed*int64(n) + int64(k)
			ins = append(ins, simInput{label: fmt.Sprintf("%s/seed=%d", preset, mk.Seed), model: mk, spec: spec})
		}
		return ins, nil
	}
}

// paperGridInputs are the distinct cells of the paper's evaluation grid
// (experiments.GridConfigs) over the five paper presets, each a
// materialized trace shared by every cell over it.
func paperGridInputs(o options) ([]simInput, error) {
	jobs := wgen.StandardJobs
	if o.quick {
		jobs = 300
	}
	models := map[string]wgen.Model{}
	for _, name := range experiments.Workloads() {
		m, err := wgen.Preset(name)
		if err != nil {
			return nil, err
		}
		m.Jobs = jobs
		m.Seed += o.seed
		models[name] = m
	}
	seen := map[experiments.Config]bool{}
	var ins []simInput
	for _, c := range experiments.GridConfigs() {
		if c.SizeFactor == 0 {
			c.SizeFactor = 1
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		c := c
		pol := scenario.PolicyConfig{BSLDThr: c.BSLDThr, WQThr: c.WQThr}
		ins = append(ins, simInput{
			label:       fmt.Sprintf("%s/%s/sf=%g", c.Workload, pol.Label(), c.SizeFactor),
			model:       models[c.Workload],
			materialize: true,
			spec:        scenario.Spec{Policy: pol, SizeFactor: c.SizeFactor},
			grid:        &c,
		})
	}
	return ins, nil
}

// cell is one compiled simulation and what its executions produced.
type cell struct {
	in    simInput
	jobs  int
	sc    *scenario.Scenario
	ref   *metrics.Results // the first execution's results; later ones must equal it
	walls []float64        // seconds per execution

	// Traced cells only.
	st      *layerStats
	obs     *observer
	capture *clusterCapture
}

// build resolves the inputs' workloads, each distinct model once, and
// compiles one scenario per input. A traced build wraps every seam the
// spec exposes in the timing forwarders of layers.go.
func build(ins []simInput, traced bool, tr *tracer, parent int) ([]*cell, *compileStats, error) {
	protos := map[wgen.Model]*wgen.Source{}
	traces := map[wgen.Model]*workload.Trace{}
	cs := &compileStats{}
	capLimit := captureLimit / len(ins)
	var cells []*cell
	for _, in := range ins {
		c := &cell{in: in}
		spec := in.spec
		switch {
		case in.materialize && traces[in.model] == nil:
			trc, err := wgen.Generate(in.model)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", in.label, err)
			}
			traces[in.model] = trc
		case !in.materialize && protos[in.model] == nil:
			p, err := wgen.Stream(in.model)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", in.label, err)
			}
			protos[in.model] = p
		}
		trc, proto := traces[in.model], protos[in.model]
		if traced {
			c.st = &layerStats{capture: &clusterCapture{limit: capLimit}}
			if err := traceSpec(&spec, c); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", in.label, err)
			}
			st := c.st
			if trc != nil {
				spec.Factory = func() (workload.JobSource, error) { return wrapSource(trc.Source(), st), nil }
			} else {
				spec.Factory = func() (workload.JobSource, error) { return wrapSource(proto.Clone(), st), nil }
			}
		} else if trc != nil {
			spec.Trace = trc
		} else {
			spec.Factory = func() (workload.JobSource, error) { return proto.Clone(), nil }
		}
		sc, err := cs.compile(spec, tr, parent)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", in.label, err)
		}
		c.sc, c.jobs = sc, sc.Jobs()
		cells = append(cells, c)
	}
	return cells, cs, nil
}

// traceSpec replaces the spec's data-level policy and controller with the
// objects scenario.Compile would build from them, wrapped in timing
// forwarders, and adds the traced run's observer.
func traceSpec(spec *scenario.Spec, c *cell) error {
	gears := dvfs.PaperGearSet()
	var pol sched.GearPolicy = sched.FixedGear{Gear: gears.Top()}
	if !spec.Policy.Baseline() {
		p, err := core.NewPolicy(core.Params{
			BSLDThreshold: spec.Policy.BSLDThr, WQThreshold: spec.Policy.WQThr,
			Boost: spec.Policy.Boost, BoostWQ: spec.Policy.BoostWQ,
		}, gears, dvfs.NewTimeModel(scenario.DefaultBeta, gears))
		if err != nil {
			return err
		}
		pol = p
	}
	wrapped, err := wrapPolicy(pol, c.st)
	if err != nil {
		return err
	}
	spec.GearPolicy = wrapped
	if cfg := spec.Controller; cfg.Enabled() {
		kp, ki := cfg.Kp, cfg.Ki
		if kp == 0 {
			kp = altpolicy.DefaultKp
		}
		if ki == 0 {
			ki = altpolicy.DefaultKi
		}
		pc, err := altpolicy.NewPowerCap(gears, dvfs.PaperPowerModel(), cfg.CapFrac, kp, ki, cfg.EcoOnly)
		if err != nil {
			return err
		}
		if spec.GearController, err = wrapController(pc, c.st); err != nil {
			return err
		}
	}
	c.obs = &observer{st: c.st, twin: newTwin()}
	spec.ExtraRecorders = []sched.Recorder{c.obs}
	return nil
}

func newTwin() *metrics.Collector {
	return metrics.NewStreamingCollector(dvfs.PaperPowerModel(), core.DefaultShortJobThreshold)
}

// compileStats times scenario.Compile calls.
type compileStats struct {
	n  int
	ns int64
}

func (cs *compileStats) compile(spec scenario.Spec, tr *tracer, parent int) (*scenario.Scenario, error) {
	id := tr.begin(parent, "scenario", "compile")
	t0 := time.Now()
	sc, err := scenario.Compile(spec)
	cs.ns += int64(time.Since(t0))
	cs.n++
	tr.end(id)
	return sc, err
}

// runRound executes every cell once on the sweep pool and returns the
// round's wall time. Failed executions are counted on rep and do not stop
// the round.
func runRound(cells []*cell, rep *report, tr *tracer, parent int) (time.Duration, error) {
	pool := &sweep.Pool{Workers: replayWorkers}
	t0 := time.Now()
	err := pool.ForEach(context.Background(), len(cells), func(i int) error {
		c := cells[i]
		var outer0 int64
		if c.st != nil {
			outer0 = c.st.outer
		}
		id := tr.begin(parent, "scenario", "execute")
		start := time.Now()
		out, err := c.sc.Execute()
		wall := time.Since(start)
		tr.end(id)
		rep.operation(err, c.in.label)
		if err == nil {
			c.observe(out, wall, outer0, rep)
		}
		return nil
	})
	return time.Since(t0), err
}

// warmUp executes the first cell once and discards its wall time; its
// results stay as the reference later executions must equal.
func warmUp(cells []*cell, rep *report, tr *tracer, root int) error {
	id := tr.begin(root, "bench", "warmup")
	_, err := runRound(cells[:1], rep, tr, id)
	tr.end(id)
	cells[0].walls = nil
	return err
}

// observe checks one execution's outcome and, for traced cells, folds its
// per-execution measurements into the cell's layer stats.
func (c *cell) observe(out scenario.Outcome, wall time.Duration, outer0 int64, rep *report) {
	c.walls = append(c.walls, wall.Seconds())
	r := out.Results
	rep.check(r.Jobs == c.jobs, "%s: completed %d jobs of %d", c.in.label, r.Jobs, c.jobs)
	if c.ref == nil {
		c.ref = &r
	} else {
		rep.check(r == *c.ref, "%s: results differ between executions", c.in.label)
	}
	if c.st == nil {
		return
	}
	st := c.st
	st.execJobs += int64(r.Jobs)
	st.execNS += int64(wall)
	st.selfNS += int64(wall) - (st.outer - outer0)
	if out.PeakEvents > st.peakEvents {
		st.peakEvents = out.PeakEvents
	}
	if cr, ok := capReport(out.Controller); ok {
		st.controlPasses += int64(cr.Passes)
		st.actuations += int64(cr.Actuations)
	}
	twin := c.obs.twin.Summarize(0, 0, out.CPUs)
	rep.check(collectorMatches(twin, r), "%s: the twin collector's summary differs from the results", c.in.label)
	c.obs.twin = newTwin()
	if st.capture != nil {
		c.capture, st.capture = st.capture, nil
	}
}

// collectorMatches compares the Results fields a collector folds itself;
// idle energy and utilization come from the cluster's integrals instead.
func collectorMatches(twin, r metrics.Results) bool {
	return twin.Jobs == r.Jobs && twin.AvgBSLD == r.AvgBSLD && twin.AvgWait == r.AvgWait &&
		twin.MaxWait == r.MaxWait && twin.ReducedJobs == r.ReducedJobs &&
		twin.CompEnergy == r.CompEnergy && twin.Window == r.Window && twin.MeanAllocRuns == r.MeanAllocRuns
}

func totalJobs(cells []*cell) int {
	n := 0
	for _, c := range cells {
		n += c.jobs
	}
	return n
}

// runReplay runs a replay workload: set-up, then rounds over its
// simulations until the run's seconds are spent, then the output checks.
func runReplay(d replayDef, o options, w io.Writer) (*report, error) {
	ins, err := d.inputs(o)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceReplay(d, ins, o, w)
	}
	rep := &report{}
	var cells []*cell
	setups, err := timedRounds(setupBudget, setupReps, func() (time.Duration, error) {
		t0 := time.Now()
		var err error
		cells, _, err = build(ins, false, nil, 0)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	if err := warmUp(cells, rep, nil, 0); err != nil {
		return nil, err
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	// Runs stop between rounds, so every run executes each cell equally
	// often and the percentiles describe the same mix of simulations.
	rounds, err := timedRounds(o.seconds, 1, func() (time.Duration, error) {
		return runRound(cells, rep, nil, 0)
	})
	if err != nil {
		return nil, err
	}
	checkReplay(d, o, cells, rep, w)

	// Throughput is the run's jobs over its rounds' wall time; an
	// operation, for the percentiles, is one execution.
	var ops, rates []float64
	for _, r := range rounds {
		rates = append(rates, float64(totalJobs(cells))/r)
	}
	for _, c := range cells {
		for _, s := range c.walls {
			ops = append(ops, s*1000)
		}
	}
	rep.add("jobs_per_s", "jobs/s", float64(len(rounds)*totalJobs(cells))/sum(rounds), rates)
	rep.add("p50_ms", "ms", quantile(ops, 0.5), ops)
	rep.add("p90_ms", "ms", quantile(ops, 0.9), ops)
	rep.add("setup_s", "s", quantile(setups, 0.5), setups)
	rss, err := vmHWMMB("/proc/self/status")
	if err != nil {
		return nil, err
	}
	rep.add("peak_rss_mb", "MB", rss, nil)
	return rep, nil
}

//go:embed testdata/digests.json
var digestsJSON []byte

// resultsDigest is the SHA-256 of the cells' reference results in input
// order, as canonical JSON.
func resultsDigest(cells []*cell) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, c := range cells {
		if err := enc.Encode(c.ref); err != nil {
			return "unencodable: " + err.Error()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkReplay runs the checks that need every cell's results: at seed 0
// the results must hash to the pinned digest, and the paper grid must
// equal the cells experiments.NewSuite(0) computes (the path that renders
// testdata/golden). Reduced-size runs have no pinned digest.
func checkReplay(d replayDef, o options, cells []*cell, rep *report, w io.Writer) {
	got := resultsDigest(cells)
	fmt.Fprintf(w, "digest %s\n", got)
	if o.seed != 0 || o.quick {
		return
	}
	var pinned map[string]string
	if err := json.Unmarshal(digestsJSON, &pinned); err != nil {
		rep.check(false, "testdata/digests.json: %v", err)
		return
	}
	rep.check(pinned[d.name] == got, "results digest %s, pinned %q", got, pinned[d.name])
	if d.name != "paper-grid" {
		return
	}
	suite := experiments.NewSuite(0)
	if err := suite.Prefetch(experiments.GridConfigs(), 2); err != nil {
		rep.check(false, "experiments suite: %v", err)
		return
	}
	for _, c := range cells {
		sc, err := suite.Cell(*c.in.grid)
		if err != nil {
			rep.check(false, "experiments suite: %v", err)
			return
		}
		rep.check(c.ref != nil && sc.Results == *c.ref, "%s: differs from experiments.NewSuite(0)", c.in.label)
	}
}

// traceReplay is the traced run of a replay workload.
func traceReplay(d replayDef, ins []simInput, o options, w io.Writer) (*report, error) {
	rep := &report{}
	tr := newTracer()
	root := tr.begin(0, "bench", "run")
	plain, lr, err := tracedPass(ins, o.seconds, o, rep, tr, root)
	if err != nil {
		return nil, err
	}
	checkReplay(d, o, plain, rep, w)
	tr.end(root)
	if err := lr.finish(o, tr, w); err != nil {
		return nil, err
	}
	lr.add(rep)
	return rep, nil
}

// tracedPass is the traced run over a set of simulations. Untraced rounds
// come first: a warm-up execution, then rounds under the CPU profile until
// half the budget (in seconds) is spent. They give the reference results
// and wall time. Traced rounds over wrapped scenarios follow until the budget is
// spent, and their results must equal the reference. tracedPass returns
// the untraced cells and the layer measurements.
func tracedPass(ins []simInput, budget float64, o options, rep *report, tr *tracer, root int) ([]*cell, *layerReport, error) {
	id := tr.begin(root, "bench", "setup")
	plain, _, err := build(ins, false, tr, id)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	rounds := func(cells []*cell, op string) ([]float64, error) {
		return timedRounds(budget/2, 1, func() (time.Duration, error) {
			id := tr.begin(root, "bench", op)
			defer tr.end(id)
			return runRound(cells, rep, tr, id)
		})
	}
	if err := warmUp(plain, rep, tr, root); err != nil {
		return nil, nil, err
	}
	lr := &layerReport{agg: &layerStats{}}
	prof, err := startCPUProfile(tracePath(o, ".cpu.pprof"))
	if err != nil {
		return nil, nil, err
	}
	plainWalls, err := rounds(plain, "untraced_round")
	rt, perr := prof.stop()
	if err = errors.Join(err, perr); err != nil {
		return nil, nil, err
	}
	lr.gcFrac = rt.gcFrac
	lr.allocPerJob = rt.allocBytes / float64(len(plainWalls)*totalJobs(plain))
	if lr.shares, err = cpuShares(prof.path); err != nil {
		return nil, nil, err
	}

	id = tr.begin(root, "bench", "traced_setup")
	cells, cs, err := build(ins, true, tr, id)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	tracedWalls, err := rounds(cells, "traced_round")
	if err != nil {
		return nil, nil, err
	}
	lr.rounds, lr.compiles, lr.profile = len(tracedWalls), cs, prof.path
	lr.overhead = quantile(tracedWalls, 0.5)/quantile(plainWalls, 0.5) - 1
	for i, c := range cells {
		rep.check(c.ref != nil && plain[i].ref != nil && *c.ref == *plain[i].ref,
			"%s: traced results differ from untraced", c.in.label)
		lr.agg.merge(c.st)
		if c.capture == nil {
			continue
		}
		sel, err := cluster.ParseSelection(c.in.spec.Selection)
		if err != nil {
			return nil, nil, err
		}
		r, err := c.capture.replay(c.sc.CPUs(), sel)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", c.in.label, err)
		}
		rep.check(r.mismatches == 0, "%s: cluster replay reproduced %d allocations differently", c.in.label, r.mismatches)
		lr.cluster.add(r)
	}
	return plain, lr, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
