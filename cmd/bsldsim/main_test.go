package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/scenario"
)

// ctcOptions are the flag values of a 200-job CTC segment at the paper's
// (2, 0) thresholds.
func ctcOptions() options {
	return options{workload: "CTC", jobs: 200, bsld: 2, size: 1, beta: scenario.DefaultBeta,
		variant: "easy", sel: "firstfit", boost: -1}
}

// runJSON runs the spec as bsldsim does and decodes the JSON report.
func runJSON(t *testing.T, spec scenario.Spec) (jsonReport, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, spec, false, true, ""); err != nil {
		return jsonReport{}, err
	}
	var rep jsonReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	return rep, nil
}

func flagSpec(t *testing.T, o options) scenario.Spec {
	t.Helper()
	spec, err := o.spec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func configSpec(t *testing.T, path string) scenario.Spec {
	t.Helper()
	spec, err := loadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBetaFlag: -beta reaches the scenario as an explicit value, so a
// non-positive β is rejected instead of running at the default under the
// default's hash, and the default β hashes like an unset one.
func TestBetaFlag(t *testing.T) {
	o := ctcOptions()
	o.beta = 0
	if _, err := runJSON(t, flagSpec(t, o)); err == nil || !strings.Contains(err.Error(), "Beta must be a positive finite number") {
		t.Fatalf("-beta 0: err = %v, want the scenario's Beta error", err)
	}
	o.beta = 0.5
	rep, err := runJSON(t, flagSpec(t, o))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Compile(scenario.Spec{Workload: "CTC", Jobs: 200, Policy: scenario.PolicyConfig{BSLDThr: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScenarioHash != sc.Hash() {
		t.Errorf("-beta 0.5 hash %s, want the unset-β hash %s", rep.ScenarioHash, sc.Hash())
	}
}

// TestConfigMatchesFlags: a -config file and the flags describing the
// same run report the same scenario hash and the same results.
func TestConfigMatchesFlags(t *testing.T) {
	o := ctcOptions()
	o.wq, o.strict, o.boost, o.size = -1, true, 8, 1.1
	o.variant, o.sel = "conservative", "nextfit"
	o.capCfg = scenario.ControllerConfig{CapFrac: 0.8}
	flags, err := runJSON(t, flagSpec(t, o))
	if err != nil {
		t.Fatal(err)
	}
	config, err := runJSON(t, configSpec(t, "testdata/flags.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flags, config) {
		t.Errorf("flag and -config reports differ:\nflags  %+v\nconfig %+v", flags, config)
	}
}

// TestConfigFull runs the committed spec that sets every platform and
// policy field through -config, and checks each reached the scenario.
func TestConfigFull(t *testing.T) {
	spec := configSpec(t, "testdata/full.json")
	pm := spec.PowerModel
	if pm == nil || *pm.ACRunning != 2 || *pm.ActivityRatio != 3 || *pm.StaticFraction != 0.2 {
		t.Fatalf("power_model = %+v", pm)
	}
	if p := spec.Policy; p.WQThr != core.NoWQLimit || !p.StrictBackfill {
		t.Fatalf("policy = %+v", p)
	}
	rep, err := runJSON(t, spec)
	if err != nil {
		t.Fatal(err)
	}
	ac, ar, sf, beta, th := 2.0, 3.0, 0.2, 0.4, 300.0
	want, err := scenario.Compile(scenario.Spec{
		Workload: "SDSCBlue", Jobs: 300,
		Gears:      dvfs.GearSet{{Freq: 1.0, Voltage: 1.0}, {Freq: 1.6, Voltage: 1.2}, {Freq: 2.0, Voltage: 1.3}},
		PowerModel: &scenario.PowerModelConfig{ACRunning: &ac, ActivityRatio: &ar, StaticFraction: &sf},
		Beta:       &beta, ShortJobTh: &th,
		Policy:     scenario.PolicyConfig{BSLDThr: 2.5, WQThr: core.NoWQLimit, StrictBackfill: true},
		SizeFactor: 1.2, Selection: "contiguous",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScenarioHash != want.Hash() || rep.Jobs != 300 || rep.Policy != "bsld(2.5,NO)" {
		t.Errorf("report %+v, want hash %s over 300 jobs under bsld(2.5,NO)", rep, want.Hash())
	}
}

// TestConfigSWFWorkload: an SWF log named in a -config file compiles by
// name with its swf_cpus, and hashes like the same log given by -swf.
func TestConfigSWFWorkload(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "t.swf")
	swf := "1 0 -1 100 2 -1 -1 2 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n" +
		"2 10 -1 50 4 -1 -1 4 60 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
	if err := os.WriteFile(log, []byte(swf), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(map[string]any{"workload": log, "swf_cpus": 8, "policy": map[string]any{"bsld_thr": 2, "wq_thr": "NO"}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "run.json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	config, err := runJSON(t, configSpec(t, path))
	if err != nil {
		t.Fatal(err)
	}
	o := ctcOptions()
	o.swf, o.cpus, o.wq = log, 8, -1
	flags, err := runJSON(t, flagSpec(t, o))
	if err != nil {
		t.Fatal(err)
	}
	if config.Jobs != 2 || config.CPUs != 8 || config.ScenarioHash != flags.ScenarioHash {
		t.Errorf("-config ran %d jobs on %d CPUs under hash %s; want 2 on 8 under the -swf hash %s",
			config.Jobs, config.CPUs, config.ScenarioHash, flags.ScenarioHash)
	}
}

// TestConfigRejectsUnknownFields: a typo fails, at the top level and
// inside the policy object.
func TestConfigRejectsUnknownFields(t *testing.T) {
	for _, doc := range []string{
		`{"workload": "CTC", "jobz": 10}`,
		`{"workload": "CTC", "policy": {"bsld_thr": 2, "wq_thr": "NO", "strict": true}}`,
	} {
		path := filepath.Join(t.TempDir(), "run.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadSpec(path); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: err = %v, want an unknown field error", doc, err)
		}
	}
}
