package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

const fullConfig = `{
  "platform": {
    "gears": [
      {"freq_ghz": 1.0, "voltage_v": 1.0},
      {"freq_ghz": 2.0, "voltage_v": 1.3}
    ],
    "activity_ratio": 3.0,
    "static_fraction": 0.2,
    "beta": 0.4
  },
  "policy": {
    "bsld_threshold": 2.5,
    "wq_threshold": "NO",
    "short_job_threshold": 300,
    "strict_backfill_bsld": true
  },
  "machine": {
    "size_factor": 1.2,
    "scheduler": "easy",
    "selection": "contiguous"
  },
  "workload": {
    "preset": "SDSCBlue",
    "jobs": 300,
    "seed": 99
  }
}`

func TestParseFullConfig(t *testing.T) {
	f, err := Parse(strings.NewReader(fullConfig))
	if err != nil {
		t.Fatal(err)
	}
	if f.Platform.Beta != 0.4 {
		t.Errorf("beta = %v", f.Platform.Beta)
	}
	if int(f.Policy.WQThreshold) != core.NoWQLimit {
		t.Errorf("wq = %d, want NoWQLimit", f.Policy.WQThreshold)
	}
}

func TestBuildSpecFull(t *testing.T) {
	f, err := Parse(strings.NewReader(fullConfig))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := f.BuildSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Gears) != 2 || spec.Gears[1].Freq != 2.0 {
		t.Errorf("gears = %v", spec.Gears)
	}
	if spec.Beta == nil || *spec.Beta != 0.4 {
		t.Errorf("beta = %v", spec.Beta)
	}
	if spec.SizeFactor != 1.2 {
		t.Errorf("size factor = %v", spec.SizeFactor)
	}
	if spec.Selection != "contiguous" {
		t.Errorf("selection = %q", spec.Selection)
	}
	if spec.GearPolicy == nil || !strings.Contains(spec.GearPolicy.Name(), "2.5") {
		t.Fatalf("policy = %v", spec.GearPolicy)
	}
	// The short-job threshold reaches both the policy's eq. (2) and the
	// collector that measures the reported BSLD.
	if th := spec.GearPolicy.(*core.Policy).Params().ShortJobThreshold; th != 300 {
		t.Errorf("policy short-job threshold = %v, want 300", th)
	}
	if spec.ShortJobTh == nil || *spec.ShortJobTh != 300 {
		t.Errorf("spec short-job threshold = %v, want 300", spec.ShortJobTh)
	}
	if len(spec.Trace.Jobs) != 300 || spec.Trace.Name != "SDSCBlue" {
		t.Errorf("trace = %s/%d jobs", spec.Trace.Name, len(spec.Trace.Jobs))
	}
	// The spec must actually run.
	sc, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sc.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if out.Results.Jobs != 300 {
		t.Errorf("simulated %d jobs", out.Results.Jobs)
	}
}

func TestBuildSpecDefaults(t *testing.T) {
	f, err := Parse(strings.NewReader(`{"workload": {"preset": "CTC", "jobs": 50}}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := f.BuildSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.GearPolicy != nil {
		t.Error("policy section omitted but spec has a policy (baseline expected)")
	}
	if spec.Variant != "easy" || spec.Selection != "firstfit" || spec.Order != "fcfs" {
		t.Errorf("variant/selection/order = %q/%q/%q, want easy/firstfit/fcfs", spec.Variant, spec.Selection, spec.Order)
	}
	if len(spec.Gears) != 6 {
		t.Errorf("gears = %d, want paper's 6", len(spec.Gears))
	}
	if spec.Beta != nil || spec.ShortJobTh != nil {
		t.Errorf("beta = %v, short-job threshold = %v, want both unset (the paper's defaults)", spec.Beta, spec.ShortJobTh)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"platfrom": {}}`)); err == nil {
		t.Error("typo field accepted")
	}
}

func TestWQUnmarshal(t *testing.T) {
	cases := []struct {
		in   string
		want int
		err  bool
	}{
		{`4`, 4, false},
		{`0`, 0, false},
		{`-1`, core.NoWQLimit, false},
		{`"NO"`, core.NoWQLimit, false},
		{`"no"`, core.NoWQLimit, false},
		{`"nolimit"`, core.NoWQLimit, false},
		{`"forty"`, 0, true},
		{`4.5`, 0, true},
	}
	for _, c := range cases {
		var w WQ
		err := w.UnmarshalJSON([]byte(c.in))
		if c.err {
			if err == nil {
				t.Errorf("%s: expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.in, err)
			continue
		}
		if int(w) != c.want {
			t.Errorf("%s -> %d, want %d", c.in, int(w), c.want)
		}
	}
}

func TestWQMarshalRoundTrip(t *testing.T) {
	for _, v := range []WQ{0, 4, 16, WQ(core.NoWQLimit)} {
		data, err := v.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back WQ
		if err := back.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		if back != v {
			t.Errorf("round trip %d -> %s -> %d", int(v), data, int(back))
		}
	}
}

func TestBuildSpecErrors(t *testing.T) {
	cases := []string{
		`{"workload": {}}`,                   // no trace source
		`{"workload": {"preset": "nosuch"}}`, // unknown preset
		`{"machine": {"scheduler": "lifo"}, "workload": {"preset":"CTC","jobs":10}}`,
		`{"machine": {"selection": "zigzag"}, "workload": {"preset":"CTC","jobs":10}}`,
		`{"platform": {"gears": [{"freq_ghz": 0, "voltage_v": 1}]}, "workload": {"preset":"CTC","jobs":10}}`,
		`{"policy": {"bsld_threshold": 0.1}, "workload": {"preset":"CTC","jobs":10}}`,
	}
	for _, in := range cases {
		f, err := Parse(strings.NewReader(in))
		if err != nil {
			continue // parse-level rejection is fine too
		}
		if _, err := f.BuildSpec(); err == nil {
			t.Errorf("config accepted: %s", in)
		}
	}
}

func TestLoadFromDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sim.json")
	if err := os.WriteFile(path, []byte(fullConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Workload.Preset != "SDSCBlue" {
		t.Errorf("preset = %q", f.Workload.Preset)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestBuildSpecSWFWorkload(t *testing.T) {
	dir := t.TempDir()
	swf := filepath.Join(dir, "t.swf")
	content := "; MaxProcs: 8\n1 0 -1 100 2 -1 -1 2 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
	if err := os.WriteFile(swf, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(strings.NewReader(`{"workload": {"swf": "` + swf + `"}}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := f.BuildSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Trace.CPUs != 8 || len(spec.Trace.Jobs) != 1 {
		t.Errorf("swf trace = %d cpus, %d jobs", spec.Trace.CPUs, len(spec.Trace.Jobs))
	}
}

func TestBuildSpecOrderAndReservations(t *testing.T) {
	f, err := Parse(strings.NewReader(`{
	  "machine": {"order": "sjf", "reservations": 4},
	  "workload": {"preset": "CTC", "jobs": 30}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := f.BuildSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Order != "sjf" {
		t.Errorf("order = %q, want sjf", spec.Order)
	}
	if spec.Reservations != 4 {
		t.Errorf("reservations = %d, want 4", spec.Reservations)
	}
	bad := []string{
		`{"machine": {"order": "lifo"}, "workload": {"preset":"CTC","jobs":10}}`,
		`{"machine": {"reservations": -2}, "workload": {"preset":"CTC","jobs":10}}`,
	}
	for _, in := range bad {
		f, err := Parse(strings.NewReader(in))
		if err != nil {
			continue
		}
		if _, err := f.BuildSpec(); err == nil {
			t.Errorf("config accepted: %s", in)
		}
	}
}
