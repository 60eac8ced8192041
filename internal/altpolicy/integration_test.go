// Integration tests live in an external package: they drive the policies
// through the scenario layer, which imports altpolicy — an in-package test
// would close that cycle.
package altpolicy_test

import (
	"testing"

	"repro/internal/altpolicy"
	"repro/internal/dvfs"
	"repro/internal/scenario"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// mustRun compiles spec and executes it once.
func mustRun(t *testing.T, spec scenario.Spec) scenario.Outcome {
	t.Helper()
	sc, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sc.Execute()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestUtilizationDrivenEndToEnd(t *testing.T) {
	m := wgen.LLNLThunder()
	m.Jobs = 600
	tr, err := wgen.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	gears := dvfs.PaperGearSet()
	pol, err := altpolicy.NewUtilizationDriven(gears, 0.3, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	base := mustRun(t, scenario.Spec{Trace: tr})
	out := mustRun(t, scenario.Spec{Trace: tr, GearPolicy: pol})
	if out.Results.CompEnergy >= base.Results.CompEnergy {
		t.Errorf("utilization-driven policy saved nothing: %v vs %v",
			out.Results.CompEnergy, base.Results.CompEnergy)
	}
	if out.Results.ReducedJobs == 0 {
		t.Error("no jobs reduced")
	}
}

// The data-plane path: a ControllerConfig on the spec compiles
// into a live power-cap controller, the outcome exposes the bound
// instance for its report, and the capped run trades BSLD for power.
func TestPowerCapThroughRunner(t *testing.T) {
	m := wgen.LLNLThunder()
	m.Jobs = 500
	tr, err := wgen.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	free := mustRun(t, scenario.Spec{Trace: tr})
	if free.Controller != nil {
		t.Fatalf("controller-free run exposed a controller: %v", free.Controller)
	}
	capped := mustRun(t, scenario.Spec{
		Trace:      tr,
		Controller: scenario.ControllerConfig{CapFrac: 0.5},
	})
	pc, ok := capped.Controller.(*altpolicy.PowerCap)
	if !ok {
		t.Fatalf("outcome controller = %T, want *altpolicy.PowerCap", capped.Controller)
	}
	rep := pc.Report()
	if rep.Passes == 0 || rep.Cap <= 0 {
		t.Fatalf("controller never ran: %+v", rep)
	}
	if rep.Actuations > 0 && capped.Results.AvgBSLD < free.Results.AvgBSLD {
		t.Errorf("cap throttled %d times yet improved BSLD %v -> %v",
			rep.Actuations, free.Results.AvgBSLD, capped.Results.AvgBSLD)
	}
	if rep.AvgDraw > rep.Cap*1.25 {
		t.Errorf("average draw %v far above cap %v", rep.AvgDraw, rep.Cap)
	}
}

// Eco consent flows through preset resolution end to end: an EcoUsers
// "*" hook on a named-preset spec tags every job (streamed and
// materialized arenas alike), so an eco-only cap bites; the same
// eco-only cap without the hook has no consenting jobs and reproduces
// the uncapped schedule exactly.
func TestEcoUsersPresetEndToEnd(t *testing.T) {
	base := scenario.Spec{Workload: "LLNLThunder", Jobs: 500}
	free, err := scenario.Compile(base)
	if err != nil {
		t.Fatal(err)
	}
	freeOut, err := free.Execute()
	if err != nil {
		t.Fatal(err)
	}
	for _, materialize := range []bool{false, true} {
		spec := base
		spec.Materialize = materialize
		spec.Controller = scenario.ControllerConfig{CapFrac: 0.5, EcoOnly: true}

		noEco, err := scenario.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		out, err := noEco.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if out.Results != freeOut.Results {
			t.Errorf("materialize=%v: eco-only cap with no consenting jobs changed results:\n%+v\n%+v",
				materialize, out.Results, freeOut.Results)
		}
		if rep := out.Controller.(*altpolicy.PowerCap).Report(); rep.Actuations != 0 {
			t.Errorf("materialize=%v: %d actuations without a consenting job", materialize, rep.Actuations)
		}

		spec.Filter = workload.SWFFilter{EcoUsers: "*"}
		eco, err := scenario.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		if eco.Hash() == noEco.Hash() {
			t.Errorf("materialize=%v: EcoUsers hook missing from the canonical hash", materialize)
		}
		ecoOut, err := eco.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if rep := ecoOut.Controller.(*altpolicy.PowerCap).Report(); rep.Actuations == 0 {
			t.Errorf("materialize=%v: cap never actuated despite universal consent", materialize)
		}
	}

	bad := base
	bad.Filter = workload.SWFFilter{EcoUsers: "seven"}
	if _, err := scenario.Compile(bad); err == nil {
		t.Error("compile accepted a malformed EcoUsers hook on a preset")
	}
}

// A zero ControllerConfig is the pre-controller path: identical results
// AND an identical scenario hash, while a configured cap hashes apart.
func TestControllerConfigHashAndNeutrality(t *testing.T) {
	m := wgen.CTC()
	m.Jobs = 300
	tr, err := wgen.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := scenario.Compile(scenario.Spec{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := scenario.Compile(scenario.Spec{Trace: tr, Controller: scenario.ControllerConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Hash() != zero.Hash() {
		t.Errorf("zero controller config changed the hash: %s vs %s", plain.Hash(), zero.Hash())
	}
	capped, err := scenario.Compile(scenario.Spec{Trace: tr, Controller: scenario.ControllerConfig{CapFrac: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Hash() == plain.Hash() {
		t.Error("capped scenario hashes identically to uncapped")
	}
	// Explicit default gains describe the same scenario as omitted ones.
	explicit, err := scenario.Compile(scenario.Spec{Trace: tr, Controller: scenario.ControllerConfig{
		CapFrac: 0.7, Kp: altpolicy.DefaultKp, Ki: altpolicy.DefaultKi,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Hash() != capped.Hash() {
		t.Error("explicit default gains hash apart from omitted gains")
	}

	a, err := plain.Execute()
	if err != nil {
		t.Fatal(err)
	}
	b, err := zero.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if a.Results != b.Results {
		t.Errorf("zero controller config changed results:\n%+v\n%+v", a.Results, b.Results)
	}
}
