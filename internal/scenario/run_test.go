package scenario

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/sched"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// execute compiles spec and executes the scenario once.
func execute(spec Spec) (Outcome, error) {
	sc, err := Compile(spec)
	if err != nil {
		return Outcome{}, err
	}
	return sc.Execute()
}

// executePair compiles spec and executes it with its no-DVFS baseline.
func executePair(spec Spec) (Outcome, Outcome, error) {
	sc, err := Compile(spec)
	if err != nil {
		return Outcome{}, Outcome{}, err
	}
	return sc.ExecutePair()
}

func ptr(v float64) *float64 { return &v }

func smallTrace(t *testing.T) *workload.Trace {
	t.Helper()
	m := wgen.CTC()
	m.Jobs = 400
	tr, err := wgen.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func bsldPolicy(t *testing.T, thr float64, wq int) sched.GearPolicy {
	t.Helper()
	gears := dvfs.PaperGearSet()
	p, err := core.NewPolicy(core.Params{BSLDThreshold: thr, WQThreshold: wq},
		gears, dvfs.NewTimeModel(DefaultBeta, gears))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunBaseline(t *testing.T) {
	out, err := execute(Spec{Trace: smallTrace(t)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Results.Jobs != 400 {
		t.Errorf("jobs = %d, want 400", out.Results.Jobs)
	}
	if out.CPUs != 430 {
		t.Errorf("cpus = %d, want 430 (trace size)", out.CPUs)
	}
	if out.Results.ReducedJobs != 0 {
		t.Errorf("baseline reduced jobs = %d, want 0", out.Results.ReducedJobs)
	}
	if out.Results.AvgBSLD < 1 {
		t.Errorf("avg BSLD = %v, want >= 1", out.Results.AvgBSLD)
	}
	if out.Results.CompEnergy <= 0 || out.Results.TotalEnergyLow <= out.Results.CompEnergy {
		t.Errorf("energies: comp %v, total %v", out.Results.CompEnergy, out.Results.TotalEnergyLow)
	}
}

func TestRunRejectsNilTrace(t *testing.T) {
	if _, err := execute(Spec{}); err == nil {
		t.Error("nil trace accepted")
	}
}

func TestRunSizeFactor(t *testing.T) {
	out, err := execute(Spec{Trace: smallTrace(t), SizeFactor: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if out.CPUs != 516 {
		t.Errorf("cpus = %d, want 516 (430×1.2)", out.CPUs)
	}
	if _, err := execute(Spec{Trace: smallTrace(t), SizeFactor: -1}); err == nil {
		t.Error("negative size factor accepted")
	}
}

func TestRunExplicitCPUs(t *testing.T) {
	out, err := execute(Spec{Trace: smallTrace(t), CPUs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if out.CPUs != 1000 {
		t.Errorf("cpus = %d, want 1000", out.CPUs)
	}
}

// The central energy claim: with the paper's power model and β=0.5,
// frequency scaling can only reduce computational energy.
func TestDVFSNeverIncreasesComputationalEnergy(t *testing.T) {
	tr := smallTrace(t)
	pol, base, err := executePair(Spec{Trace: tr, GearPolicy: bsldPolicy(t, 2, core.NoWQLimit)})
	if err != nil {
		t.Fatal(err)
	}
	if pol.Results.CompEnergy > base.Results.CompEnergy*(1+1e-9) {
		t.Errorf("DVFS comp energy %v exceeds baseline %v",
			pol.Results.CompEnergy, base.Results.CompEnergy)
	}
	if pol.Results.ReducedJobs == 0 {
		t.Error("policy reduced no jobs on a moderately loaded trace")
	}
	// Performance must not improve: frequency scaling penalizes BSLD.
	if pol.Results.AvgBSLD < base.Results.AvgBSLD-1e-9 {
		t.Errorf("DVFS avg BSLD %v better than baseline %v",
			pol.Results.AvgBSLD, base.Results.AvgBSLD)
	}
}

// ExecutePair must run the exact same machine twice — once with the
// policy, once at the top gear — since every normalized energy in the
// paper divides by such a baseline.
func TestBaselinePair(t *testing.T) {
	tr := smallTrace(t)
	cases := []struct {
		name string
		spec Spec
	}{
		{"original size", Spec{Trace: tr, GearPolicy: bsldPolicy(t, 2, 16)}},
		{"enlarged", Spec{Trace: tr, GearPolicy: bsldPolicy(t, 2, core.NoWQLimit), SizeFactor: 1.5}},
		{"explicit cpus", Spec{Trace: tr, GearPolicy: bsldPolicy(t, 3, 0), CPUs: 600}},
		{"fcfs variant", Spec{Trace: tr, GearPolicy: bsldPolicy(t, 1.5, 4), Variant: "fcfs"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol, base, err := executePair(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if pol.CPUs != base.CPUs {
				t.Errorf("machine sizes differ: policy %d, baseline %d", pol.CPUs, base.CPUs)
			}
			if base.Results.ReducedJobs != 0 {
				t.Errorf("baseline reduced %d jobs", base.Results.ReducedJobs)
			}
			if base.Policy == pol.Policy {
				t.Errorf("baseline policy name %q equals the DVFS policy's", base.Policy)
			}
			// The baseline leg must be identical to a plain no-policy run.
			plain := tc.spec
			plain.GearPolicy = nil
			want, err := execute(plain)
			if err != nil {
				t.Fatal(err)
			}
			if base.Results != want.Results {
				t.Error("baseline leg differs from a direct no-policy run")
			}
		})
	}
}

func TestBaselinePairPropagatesErrors(t *testing.T) {
	if _, _, err := executePair(Spec{}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, _, err := executePair(Spec{Trace: smallTrace(t), SizeFactor: -2}); err == nil {
		t.Error("negative size factor accepted")
	}
}

func TestKeepCollector(t *testing.T) {
	out, err := execute(Spec{Trace: smallTrace(t), KeepCollector: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Collector == nil {
		t.Fatal("collector not kept")
	}
	if len(out.Collector.WaitSeries()) != 400 {
		t.Errorf("wait series = %d points", len(out.Collector.WaitSeries()))
	}
	out2, _ := execute(Spec{Trace: smallTrace(t)})
	if out2.Collector != nil {
		t.Error("collector kept without KeepCollector")
	}
}

func TestRunDeterministic(t *testing.T) {
	spec := Spec{Trace: smallTrace(t), GearPolicy: bsldPolicy(t, 2, 16)}
	a, err := execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Results != b.Results {
		t.Errorf("identical specs produced different results:\n%+v\n%+v", a.Results, b.Results)
	}
}

// Enlarging the system must improve (or preserve) job performance under
// the same policy — the monotonicity behind Figure 9.
func TestLargerSystemNoWorseBSLD(t *testing.T) {
	tr := smallTrace(t)
	small, err := execute(Spec{Trace: tr, SizeFactor: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	big, err := execute(Spec{Trace: tr, SizeFactor: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if big.Results.AvgBSLD > small.Results.AvgBSLD*1.02 {
		t.Errorf("50%% larger system worsened BSLD: %v vs %v",
			big.Results.AvgBSLD, small.Results.AvgBSLD)
	}
}

func TestBetaZeroMeansNoDilationPenalty(t *testing.T) {
	tr := smallTrace(t)
	// With β≈0 the lowest gear never dilates, so every job is reduced and
	// wall-clock schedules match the baseline exactly.
	out, err := execute(Spec{Trace: tr, GearPolicy: bsldPolicy(t, 1.5, core.NoWQLimit), Beta: ptr(1e-12)})
	if err != nil {
		t.Fatal(err)
	}
	base, err := execute(Spec{Trace: tr, Beta: ptr(1e-12)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Results.AvgWait-base.Results.AvgWait) > 1e-6 {
		t.Errorf("β=0: wait changed (%v vs %v)", out.Results.AvgWait, base.Results.AvgWait)
	}
	// Nearly every job is reduced; the exception is a job whose *wait*
	// alone pushes predicted BSLD over the threshold, which falls back to
	// Ftop by design (Figure 1's else branch).
	if out.Results.ReducedJobs < out.Results.Jobs*95/100 {
		t.Errorf("β=0: reduced %d of %d jobs, want ≥95%%", out.Results.ReducedJobs, out.Results.Jobs)
	}
}

func TestRunOrderAndReservationsPassThrough(t *testing.T) {
	// The saturated SDSC model keeps a deep queue, so the order option
	// visibly changes the schedule.
	m := wgen.SDSC()
	m.Jobs = 400
	tr, err := wgen.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	fcfsOrder, err := execute(Spec{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	sjf, err := execute(Spec{Trace: tr, Order: "sjf"})
	if err != nil {
		t.Fatal(err)
	}
	if sjf.Results.AvgWait == fcfsOrder.Results.AvgWait {
		t.Error("SJF order produced the identical schedule; option not applied")
	}
	flex, err := execute(Spec{Trace: tr, Reservations: 8})
	if err != nil {
		t.Fatal(err)
	}
	if flex.Results.Jobs != fcfsOrder.Results.Jobs {
		t.Error("flexible run lost jobs")
	}
	// Deep flexible equals conservative.
	deep, err := execute(Spec{Trace: tr, Reservations: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := execute(Spec{Trace: tr, Variant: "conservative"})
	if err != nil {
		t.Fatal(err)
	}
	if deep.Results.AvgWait != cons.Results.AvgWait {
		t.Errorf("deep flexible wait %v != conservative %v",
			deep.Results.AvgWait, cons.Results.AvgWait)
	}
}

func TestRunSelectionPassThrough(t *testing.T) {
	tr := smallTrace(t)
	ff, err := execute(Spec{Trace: tr, KeepCollector: true})
	if err != nil {
		t.Fatal(err)
	}
	cont, err := execute(Spec{Trace: tr, Selection: "contiguous", KeepCollector: true})
	if err != nil {
		t.Fatal(err)
	}
	// Identical scheduling metrics (processor identity is timing-neutral)...
	if ff.Results.AvgWait != cont.Results.AvgWait || ff.Results.AvgBSLD != cont.Results.AvgBSLD {
		t.Error("selection policy changed scheduling times on a flat machine")
	}
	// ...but placement contiguity improves or holds.
	if cont.Results.MeanAllocRuns > ff.Results.MeanAllocRuns {
		t.Errorf("contiguous selection runs %v worse than first fit %v",
			cont.Results.MeanAllocRuns, ff.Results.MeanAllocRuns)
	}
}

// TestRunWorkloadErrorMessages pins both error branches of the workload
// input check: no input names every input field, and a double input
// names the conflict.
func TestRunWorkloadErrorMessages(t *testing.T) {
	_, err := execute(Spec{})
	if err == nil {
		t.Fatal("empty spec accepted")
	}
	for _, want := range []string{"Workload", "Trace", "Source", "Factory"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("no-workload error %q does not name Spec.%s", err, want)
		}
	}
	tr := smallTrace(t)
	_, err = execute(Spec{Trace: tr, Source: tr.Source()})
	if err == nil {
		t.Fatal("spec with both Trace and Source accepted")
	}
	if !strings.Contains(err.Error(), "Trace and Source all set") {
		t.Errorf("double-workload error %q does not name the conflict", err)
	}
}
