package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/scenario"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// runJSON runs the CLI's flag path on a 200-job CTC segment at the
// paper's (2, 0) thresholds and decodes the JSON report.
func runJSON(t *testing.T, beta float64) (jsonReport, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(&buf, "CTC", "", 0, 200, 2, 0, 1, beta, "easy", "firstfit",
		false, false, false, false, -1, scenario.ControllerConfig{}, "", false, true, "")
	if err != nil {
		return jsonReport{}, err
	}
	var rep jsonReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	return rep, nil
}

// TestBetaFlag: -beta reaches the scenario as an explicit value, so a
// non-positive β is rejected instead of running at the default under the
// default's hash, and the default β hashes like an unset one.
func TestBetaFlag(t *testing.T) {
	if _, err := runJSON(t, 0); err == nil || !strings.Contains(err.Error(), "Beta must be a positive finite number") {
		t.Fatalf("-beta 0: err = %v, want the scenario's Beta error", err)
	}
	rep, err := runJSON(t, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := wgen.ResolveTrace("CTC", 0, 200, workload.SWFFilter{})
	if err != nil {
		t.Fatal(err)
	}
	gears := dvfs.PaperGearSet()
	pol, err := core.NewPolicy(core.Params{BSLDThreshold: 2, WQThreshold: 0},
		gears, dvfs.NewTimeModel(scenario.DefaultBeta, gears))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Compile(scenario.Spec{Trace: tr, GearPolicy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScenarioHash != sc.Hash() {
		t.Errorf("-beta 0.5 hash %s, want the unset-β hash %s", rep.ScenarioHash, sc.Hash())
	}
}
