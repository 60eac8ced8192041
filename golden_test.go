package repro

// Golden regression tests: exact metric values for fixed seeds. Every
// layer of the pipeline is deterministic (seeded generators, totally
// ordered events), so any drift here means the scheduling, power or
// accounting semantics changed. If the change is intentional, regenerate
// the golden tables (`go run ./cmd/experiments -outdir testdata/golden`)
// and confirm the paper's claims still hold (`go run ./cmd/reprocheck`).

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/wgen"
)

// goldenTolerance is loose enough to survive floating-point reassociation
// across Go releases but far tighter than any semantic change.
const goldenTolerance = 1e-10

func goldenRun(t *testing.T, policy bool) scenario.Outcome {
	t.Helper()
	m := wgen.CTC()
	m.Jobs = 400
	tr, err := wgen.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.Spec{Trace: tr}
	if policy {
		gears := dvfs.PaperGearSet()
		pol, err := core.NewPolicy(core.Params{BSLDThreshold: 2, WQThreshold: 16},
			gears, dvfs.NewTimeModel(scenario.DefaultBeta, gears))
		if err != nil {
			t.Fatal(err)
		}
		spec.GearPolicy = pol
	}
	out, err := runSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s = %v, want 0", name, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > goldenTolerance {
		t.Errorf("%s = %.12g, want %.12g", name, got, want)
	}
}

func TestGoldenBaselineCTC400(t *testing.T) {
	r := goldenRun(t, false).Results
	approx(t, "AvgBSLD", r.AvgBSLD, 1.05059226123)
	approx(t, "AvgWait", r.AvgWait, 104.162471004)
	approx(t, "CompEnergy", r.CompEnergy, 1.08987894797e8)
	if r.ReducedJobs != 0 {
		t.Errorf("ReducedJobs = %d, want 0", r.ReducedJobs)
	}
}

func TestGoldenPolicyCTC400(t *testing.T) {
	r := goldenRun(t, true).Results
	approx(t, "AvgBSLD", r.AvgBSLD, 2.16077057902)
	approx(t, "AvgWait", r.AvgWait, 1243.55565344)
	approx(t, "CompEnergy", r.CompEnergy, 7.10142596357e7)
	if r.ReducedJobs != 294 {
		t.Errorf("ReducedJobs = %d, want 294", r.ReducedJobs)
	}
}

// TestGoldenStreamingPipeline replays the golden runs through the
// streaming workload pipeline (wgen.Stream → scenario.Spec.Source) and
// requires BIT-identical Results — not just within tolerance — against
// the materialized path: streaming is a memory refactor, never a
// semantic one.
func TestGoldenStreamingPipeline(t *testing.T) {
	for _, policy := range []bool{false, true} {
		want := goldenRun(t, policy)
		m := wgen.CTC()
		m.Jobs = 400
		src, err := wgen.Stream(m)
		if err != nil {
			t.Fatal(err)
		}
		spec := scenario.Spec{Source: src}
		if policy {
			gears := dvfs.PaperGearSet()
			pol, err := core.NewPolicy(core.Params{BSLDThreshold: 2, WQThreshold: 16},
				gears, dvfs.NewTimeModel(scenario.DefaultBeta, gears))
			if err != nil {
				t.Fatal(err)
			}
			spec.GearPolicy = pol
		}
		got, err := runSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Results != want.Results {
			t.Errorf("policy=%t: streamed Results differ from materialized:\n%+v\n%+v",
				policy, got.Results, want.Results)
		}
	}
}

// Golden artifact fixtures: the CSV renditions of every paper table and
// figure, pinned byte-for-byte under testdata/golden (generated by
// cmd/experiments at the full 5000-job grid; regenerate with
// `go run ./cmd/experiments -outdir testdata/golden` after an intentional
// semantic change). Generated output directories like out/ are
// .gitignored — fixtures live here, artifacts stay out of the tree.
func TestGoldenArtifactCSVs(t *testing.T) {
	if testing.Short() {
		t.Skip("full 5000-job grid in short mode")
	}
	dir := t.TempDir()
	s := experiments.NewSuite(0)
	if err := experiments.RunAll(s, io.Discard, dir, 0); err != nil {
		t.Fatal(err)
	}
	fixtures, err := filepath.Glob(filepath.Join("testdata", "golden", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no golden fixtures under testdata/golden")
	}
	compareGoldenCSVs(t, dir, fixtures)
}

// TestGoldenArtifactCSVsStreaming regenerates every paper table and
// figure through the STREAMING suite — each grid cell driven by an
// independent lazily generating source — and requires the same
// byte-for-byte fixtures: the full reproduction survives the workload
// pipeline swap untouched.
func TestGoldenArtifactCSVsStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("full 5000-job grid in short mode")
	}
	dir := t.TempDir()
	s := experiments.NewStreamingSuite(0)
	if err := experiments.RunAll(s, io.Discard, dir, 0); err != nil {
		t.Fatal(err)
	}
	fixtures, err := filepath.Glob(filepath.Join("testdata", "golden", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no golden fixtures under testdata/golden")
	}
	compareGoldenCSVs(t, dir, fixtures)
}

// compareGoldenCSVs checks every fixture against its regenerated twin.
func compareGoldenCSVs(t *testing.T, dir string, fixtures []string) {
	t.Helper()
	for _, fix := range fixtures {
		name := filepath.Base(fix)
		want, err := os.ReadFile(fix)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: artifact not regenerated: %v", name, err)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("%s: regenerated CSV differs from golden fixture", name)
		}
	}
	// And the other direction: every regenerated artifact has a fixture.
	outs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(fixtures) {
		t.Errorf("regenerated %d CSVs, %d fixtures committed", len(outs), len(fixtures))
	}
}

// Golden baselines for every calibrated preset (400-job prefixes): the
// generator streams and the scheduling semantics are pinned together. A
// tolerance of 1e-10 passes float noise but fails any semantic drift.
func TestGoldenAllPresets(t *testing.T) {
	golden := map[string][3]float64{ // AvgBSLD, AvgWait, CompEnergy
		"CTC":         {1.050592261, 104.162471, 1.089878948e8},
		"SDSC":        {2.223299188, 1607.619254, 1.101470206e8},
		"SDSCBlue":    {1.437702914, 727.0844868, 4.673088275e8},
		"LLNLThunder": {1, 0, 1.007965528e9},
		"LLNLAtlas":   {1.027572151, 35.06091719, 5.328235202e9},
	}
	// These constants carry 10 significant digits, so compare at 1e-8.
	approx10 := func(name string, got, want float64) {
		t.Helper()
		if want == 0 {
			if got != 0 {
				t.Errorf("%s = %v, want 0", name, got)
			}
			return
		}
		if math.Abs(got-want)/math.Abs(want) > 1e-8 {
			t.Errorf("%s = %.12g, want %.12g", name, got, want)
		}
	}
	for _, m := range wgen.Presets() {
		m.Jobs = 400
		tr, err := wgen.Generate(m)
		if err != nil {
			t.Fatal(err)
		}
		out, err := runSpec(scenario.Spec{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		want := golden[m.Name]
		r := out.Results
		approx10(m.Name+".AvgBSLD", r.AvgBSLD, want[0])
		approx10(m.Name+".AvgWait", r.AvgWait, want[1])
		approx10(m.Name+".CompEnergy", r.CompEnergy, want[2])
	}
}
