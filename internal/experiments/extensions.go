package experiments

import (
	"context"
	"fmt"

	"repro/internal/altpolicy"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/nodepower"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/textplot"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// Extension experiments beyond the paper's evaluation: the dynamic boost
// the paper names as future work (§7), the per-job β analysis it plans
// (§7), and a node power-down baseline from its related work (§6). They
// run outside the Suite's cached grid because they vary knobs the grid
// does not expose; each builds its spec list up front and executes it
// through the sweep pool, so every table fills at full core count while
// the rendered rows stay in presentation order.

// extTrace generates the workload at the suite's segment length.
func extTrace(s *Suite, name string) (scenario.Spec, error) {
	tr, err := s.trace(name)
	if err != nil {
		return scenario.Spec{}, err
	}
	return scenario.Spec{Trace: tr}, nil
}

// extPolicy is the paper's policy at BSLDthr=2, WQ=NO, the setting every
// extension table starts from.
var extPolicy = scenario.PolicyConfig{BSLDThr: 2, WQThr: core.NoWQLimit}

// runAll compiles the specs, executes them across the sweep pool and
// returns outcomes in spec order; the first compile or per-run failure
// aborts. Runs execute concurrently, so a stateful gear policy (a
// sched.PowerController without a clone seam) must not be shared between
// specs — stateless policies like core.Policy may be.
func runAll(specs []scenario.Spec) ([]scenario.Outcome, error) {
	runs := make([]sweep.Run, len(specs))
	for i, sp := range specs {
		sc, err := scenario.Compile(sp)
		if err != nil {
			return nil, err
		}
		runs[i] = sweep.Run{Point: sweep.Point{Index: i}, Scenario: sc}
	}
	results, err := (&sweep.Pool{}).Execute(context.Background(), runs)
	if err != nil {
		return nil, err
	}
	outs := make([]scenario.Outcome, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		outs[i] = r.Outcome
	}
	return outs, nil
}

// ExtBoost compares the paper's future-work extension — dynamically
// raising running reduced jobs to Ftop when the queue exceeds a bound —
// against the static assignment, at (BSLDthr=2, WQ=NO).
func ExtBoost(s *Suite) (textplot.Table, error) {
	t := textplot.Table{
		Title: "Extension: dynamic frequency boost (paper §7 future work), BSLDthr=2, WQ=NO, boost above 16 waiting",
		Header: []string{"Workload", "energy off", "energy on", "wait off(s)", "wait on(s)",
			"BSLD off", "BSLD on"},
		Note: "energy = computational, normalized to no-DVFS; boost trades some savings for shorter queues",
	}
	var specs []scenario.Spec
	for _, w := range Workloads() {
		spec, err := extTrace(s, w)
		if err != nil {
			return t, err
		}
		specs = append(specs, spec)
		for _, boost := range []bool{false, true} {
			run := spec
			run.Policy = extPolicy
			run.Policy.Boost, run.Policy.BoostWQ = boost, 16
			specs = append(specs, run)
		}
	}
	outs, err := runAll(specs)
	if err != nil {
		return t, err
	}
	for i, w := range Workloads() {
		base, off, on := outs[3*i], outs[3*i+1], outs[3*i+2]
		t.AddRow(w,
			pct(off.Results.CompEnergy/base.Results.CompEnergy),
			pct(on.Results.CompEnergy/base.Results.CompEnergy),
			sec0(off.Results.AvgWait), sec0(on.Results.AvgWait),
			f2(off.Results.AvgBSLD), f2(on.Results.AvgBSLD))
	}
	return t, nil
}

// ExtPerJobBeta contrasts the paper's uniform β=0.5 with heterogeneous
// per-job β drawn from U[0.2, 0.8] (same mean), the analysis §7 proposes
// to enable modeling of per-job DVFS potential.
func ExtPerJobBeta(s *Suite) (textplot.Table, error) {
	t := textplot.Table{
		Title:  "Extension: per-job β (paper §7 future work), BSLDthr=2, WQ=NO",
		Header: []string{"Workload", "energy β=0.5", "energy β~U[0.2,0.8]", "BSLD β=0.5", "BSLD β~U"},
		Note:   "per-job β keeps the mean dilation but lets the policy favour jobs with low penalty",
	}
	// Four runs per workload: baseline and policy on the uniform-β trace,
	// then on the per-job-β trace.
	var specs []scenario.Spec
	for _, w := range Workloads() {
		model, err := wgen.Preset(w)
		if err != nil {
			return t, err
		}
		model.Jobs = s.jobs
		uniform, err := wgen.Generate(model)
		if err != nil {
			return t, err
		}
		model.BetaMin, model.BetaMax = 0.2, 0.8
		perJob, err := wgen.Generate(model)
		if err != nil {
			return t, err
		}
		for _, trace := range []*workload.Trace{uniform, perJob} {
			specs = append(specs,
				scenario.Spec{Trace: trace},
				scenario.Spec{Trace: trace, Policy: extPolicy})
		}
	}
	outs, err := runAll(specs)
	if err != nil {
		return t, err
	}
	for i, w := range Workloads() {
		var energies, bslds []string
		for k := 0; k < 2; k++ {
			base, out := outs[4*i+2*k], outs[4*i+2*k+1]
			energies = append(energies, pct(out.Results.CompEnergy/base.Results.CompEnergy))
			bslds = append(bslds, f2(out.Results.AvgBSLD))
		}
		t.AddRow(w, energies[0], energies[1], bslds[0], bslds[1])
	}
	return t, nil
}

// ExtPolicyComparison pits the paper's BSLD-guarded assignment against
// the utilization-driven trigger of the related work (Fan et al., §6):
// comparable savings, but without the per-job prediction nothing bounds
// the slowdown of a reduced job.
func ExtPolicyComparison(s *Suite) (textplot.Table, error) {
	t := textplot.Table{
		Title: "Extension: BSLD-threshold vs utilization-driven DVFS (related work §6)",
		Header: []string{"Workload", "energy bsld(2,NO)", "energy util(.3,.9)",
			"BSLD bsld(2,NO)", "BSLD util(.3,.9)", "BSLD base"},
		Note: "utilization-driven reduces on an idle machine regardless of the job's slowdown outlook",
	}
	gears := dvfs.PaperGearSet()
	var specs []scenario.Spec
	for _, w := range Workloads() {
		spec, err := extTrace(s, w)
		if err != nil {
			return t, err
		}
		// The utilization policy binds to its system, so each concurrent
		// run needs a fresh instance.
		utilPol, err := altpolicy.NewUtilizationDriven(gears, 0.3, 0.9)
		if err != nil {
			return t, err
		}
		bsldRun, utilRun := spec, spec
		bsldRun.Policy = extPolicy
		utilRun.GearPolicy = utilPol
		specs = append(specs, spec, bsldRun, utilRun)
	}
	outs, err := runAll(specs)
	if err != nil {
		return t, err
	}
	for i, w := range Workloads() {
		base, bsldOut, utilOut := outs[3*i], outs[3*i+1], outs[3*i+2]
		t.AddRow(w,
			pct(bsldOut.Results.CompEnergy/base.Results.CompEnergy),
			pct(utilOut.Results.CompEnergy/base.Results.CompEnergy),
			f2(bsldOut.Results.AvgBSLD), f2(utilOut.Results.AvgBSLD),
			f2(base.Results.AvgBSLD))
	}
	return t, nil
}

// ExtEstimateQuality varies the accuracy of user runtime estimates. The
// requested time enters both EASY's planning and the BSLD predictor of
// eq. (2), so estimate pathologies — the best-documented quirk of PWA
// traces — shift what the policy dares to reduce.
func ExtEstimateQuality(s *Suite, workloadName string) (textplot.Table, error) {
	t := textplot.Table{
		Title:  fmt.Sprintf("Extension: user estimate quality (%s, BSLDthr=2, WQ=NO)", workloadName),
		Header: []string{"estimates", "energy(idle=0)", "avgBSLD policy", "avgBSLD base", "reduced"},
		Note:   "perfect = requests equal runtimes; default = calibrated PWA-like overestimation; sloppy = 3× heavier tail",
	}
	model, err := wgen.Preset(workloadName)
	if err != nil {
		return t, err
	}
	model.Jobs = s.jobs
	variants := []struct {
		name   string
		mutate func(*wgen.Model)
	}{
		{"perfect", func(m *wgen.Model) { m.AccurateFrac = 1 }},
		{"default", func(m *wgen.Model) {}},
		{"sloppy", func(m *wgen.Model) { m.OverestMean *= 3 }},
	}
	var specs []scenario.Spec
	for _, v := range variants {
		m := model
		v.mutate(&m)
		tr, err := wgen.Generate(m)
		if err != nil {
			return t, err
		}
		specs = append(specs,
			scenario.Spec{Trace: tr},
			scenario.Spec{Trace: tr, Policy: extPolicy})
	}
	outs, err := runAll(specs)
	if err != nil {
		return t, err
	}
	for i, v := range variants {
		base, out := outs[2*i], outs[2*i+1]
		t.AddRow(v.name,
			pct(out.Results.CompEnergy/base.Results.CompEnergy),
			f2(out.Results.AvgBSLD), f2(base.Results.AvgBSLD),
			fmt.Sprint(out.Results.ReducedJobs))
	}
	return t, nil
}

// ExtLoadSweep measures how the policy's savings respond to offered load
// by rescaling one workload's arrival process — the generalization of the
// paper's SDSC observation that a saturated system cannot save energy.
func ExtLoadSweep(s *Suite, workloadName string) (textplot.Table, error) {
	t := textplot.Table{
		Title:  fmt.Sprintf("Extension: savings vs offered load (%s, BSLDthr=2, WQ=NO)", workloadName),
		Header: []string{"load ×", "utilization", "energy(idle=0)", "avgBSLD policy", "avgBSLD base"},
		Note:   "each row rescales interarrival gaps; energy normalized to the no-DVFS run at the SAME load",
	}
	tr, err := s.trace(workloadName)
	if err != nil {
		return t, err
	}
	factors := []float64{0.6, 0.8, 1.0, 1.2, 1.4}
	var specs []scenario.Spec
	for _, factor := range factors {
		scaled := workload.ScaleLoad(tr, factor)
		specs = append(specs,
			scenario.Spec{Trace: scaled},
			scenario.Spec{Trace: scaled, Policy: extPolicy})
	}
	outs, err := runAll(specs)
	if err != nil {
		return t, err
	}
	for i, factor := range factors {
		base, out := outs[2*i], outs[2*i+1]
		t.AddRow(fmt.Sprintf("%.1f", factor),
			f2(base.Results.Utilization),
			pct(out.Results.CompEnergy/base.Results.CompEnergy),
			f2(out.Results.AvgBSLD),
			f2(base.Results.AvgBSLD))
	}
	return t, nil
}

// ExtSeedSensitivity replicates the headline measurement across RNG seeds
// of the synthetic generators, quantifying how much of each number is
// trace-sampling noise: the reproduction's claims should be (and are)
// stable far beyond the seed-to-seed spread.
func ExtSeedSensitivity(s *Suite, replicas int) (textplot.Table, error) {
	if replicas < 2 {
		replicas = 5
	}
	t := textplot.Table{
		Title: fmt.Sprintf("Extension: seed sensitivity (%d trace replicas per workload, BSLDthr=2, WQ=NO)", replicas),
		Header: []string{"Workload", "base BSLD mean±sd", "savings% mean±sd",
			"BSLD penalty mean±sd"},
		Note: "each replica regenerates the synthetic trace with a different seed; ± is one standard deviation",
	}
	var specs []scenario.Spec
	for _, w := range Workloads() {
		model, err := wgen.Preset(w)
		if err != nil {
			return t, err
		}
		model.Jobs = s.jobs
		for r := 0; r < replicas; r++ {
			m := model
			m.Seed = model.Seed + int64(r)*7919 // deterministic distinct seeds
			tr, err := wgen.Generate(m)
			if err != nil {
				return t, err
			}
			specs = append(specs,
				scenario.Spec{Trace: tr},
				scenario.Spec{Trace: tr, Policy: extPolicy})
		}
	}
	outs, err := runAll(specs)
	if err != nil {
		return t, err
	}
	for i, w := range Workloads() {
		var baseB, savings, penalty stats.Summary
		for r := 0; r < replicas; r++ {
			base, out := outs[2*(i*replicas+r)], outs[2*(i*replicas+r)+1]
			baseB.Add(base.Results.AvgBSLD)
			savings.Add(100 * (1 - out.Results.CompEnergy/base.Results.CompEnergy))
			penalty.Add(out.Results.AvgBSLD - base.Results.AvgBSLD)
		}
		ms := func(sm stats.Summary) string {
			return fmt.Sprintf("%.2f±%.2f", sm.Mean(), sm.StdDev())
		}
		t.AddRow(w, ms(baseB), ms(savings), ms(penalty))
	}
	return t, nil
}

// ExtPowerCap crosses closed-loop power-cap levels with the policy's
// BSLD threshold: the PI gear-ceiling controller (altpolicy.PowerCap)
// holds the tracked draw under each cap while the threshold governs how
// aggressively the per-job policy reduces on its own. Each threshold's
// uncapped run anchors the BSLD-degradation and energy columns, the
// paper-style trade-off read: capping buys a power bound with queue-time
// currency.
func ExtPowerCap(s *Suite, workloadName string) (textplot.Table, error) {
	t := textplot.Table{
		Title: fmt.Sprintf("Extension: closed-loop power capping × BSLD threshold (%s, WQ=NO, PI gear-ceiling controller)", workloadName),
		Header: []string{"BSLDthr", "cap", "avg draw", "over-cap time", "regears",
			"avgBSLD", "ΔBSLD", "energy vs uncapped"},
		Note: "cap and avg draw are fractions of peak machine draw (all CPUs at Ftop); ΔBSLD and energy are relative to the same threshold uncapped",
	}
	spec0, err := extTrace(s, workloadName)
	if err != nil {
		return t, err
	}
	pm := dvfs.PaperPowerModel()
	peak := float64(spec0.Trace.CPUs) * pm.Active(pm.Gears.Top())
	thresholds := []float64{2, 5}
	caps := []float64{0, 0.85, 0.7, 0.55}
	var specs []scenario.Spec
	for _, thr := range thresholds {
		for _, capf := range caps {
			run := spec0
			run.Policy = extPolicy
			run.Policy.BSLDThr = thr
			if capf > 0 {
				run.Controller = scenario.ControllerConfig{CapFrac: capf}
			}
			specs = append(specs, run)
		}
	}
	outs, err := runAll(specs)
	if err != nil {
		return t, err
	}
	for i, thr := range thresholds {
		uncapped := outs[i*len(caps)]
		for j, capf := range caps {
			out := outs[i*len(caps)+j]
			if capf == 0 {
				t.AddRow(fmt.Sprintf("%g", thr), "none", "-", "-", "0",
					f2(out.Results.AvgBSLD), "-", pct(1))
				continue
			}
			pc, ok := out.Controller.(*altpolicy.PowerCap)
			if !ok {
				return t, fmt.Errorf("experiments: capped run returned controller %T", out.Controller)
			}
			rep := pc.Report()
			t.AddRow(
				fmt.Sprintf("%g", thr),
				fmt.Sprintf("%.2f", capf),
				fmt.Sprintf("%.2f", rep.AvgDraw/peak),
				pct(rep.OverFrac),
				fmt.Sprint(rep.Actuations),
				f2(out.Results.AvgBSLD),
				f2(out.Results.AvgBSLD-uncapped.Results.AvgBSLD),
				pct(out.Results.CompEnergy/uncapped.Results.CompEnergy))
		}
	}
	return t, nil
}

// ExtPowerDown evaluates the related-work alternative (§6): power down
// idle nodes instead of scaling frequency, and the combination of both.
// Energies are total (Eidle=low accounting), normalized to the no-DVFS,
// always-on baseline.
func ExtPowerDown(s *Suite) (textplot.Table, error) {
	t := textplot.Table{
		Title:  "Extension: idle-node power-down baseline (related work §6), total energy normalized to no-DVFS always-on",
		Header: []string{"Workload", "DVFS(2,NO)", "power-down", "DVFS+power-down"},
		Note: fmt.Sprintf("power-down: %.0f s idle timeout, %.0f s wake energy, perfect off (optimistic bound)",
			nodepower.DefaultPolicy().IdleOffDelay, nodepower.DefaultPolicy().WakeEnergySeconds),
	}
	pm := dvfs.PaperPowerModel()
	// Four runs per workload: always-on baseline, DVFS only, power-down
	// tracking without and with DVFS. Each tracked run owns its tracker.
	var specs []scenario.Spec
	var trackers []*nodepower.Tracker
	for _, w := range Workloads() {
		spec, err := extTrace(s, w)
		if err != nil {
			return t, err
		}
		specs = append(specs, spec)
		dvfsOnly := spec
		dvfsOnly.Policy = extPolicy
		specs = append(specs, dvfsOnly)
		for _, tracked := range []scenario.PolicyConfig{{}, extPolicy} {
			tracker := nodepower.NewTracker(spec.Trace.CPUs)
			trackers = append(trackers, tracker)
			run := spec
			run.Policy = tracked
			run.ExtraRecorders = []sched.Recorder{tracker}
			specs = append(specs, run)
		}
	}
	outs, err := runAll(specs)
	if err != nil {
		return t, err
	}
	for i, w := range Workloads() {
		base, dvfsOnly := outs[4*i], outs[4*i+1]
		denom := base.Results.TotalEnergyLow
		tr, err := s.trace(w)
		if err != nil {
			return t, err
		}
		total := make([]float64, 2)
		for k := 0; k < 2; k++ {
			rep, err := trackers[2*i+k].Evaluate(nodepower.DefaultPolicy(), pm, tr.Jobs[0].Submit)
			if err != nil {
				return t, err
			}
			total[k] = outs[4*i+2+k].Results.CompEnergy + rep.TotalIdleSideEnergy()
		}
		t.AddRow(w,
			pct(dvfsOnly.Results.TotalEnergyLow/denom),
			pct(total[0]/denom),
			pct(total[1]/denom))
	}
	return t, nil
}
