package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/altpolicy"
	"repro/internal/analysis"
	"repro/internal/analysis/antest"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/workload"
)

// benchmarkSpec is the part of ../BENCHMARK.json the code must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload at reduced size, untraced and traced (the
// whatif ones as 20 requests against a freshly built schedd), and checks
// that each run passes its output checks and prints exactly the metric
// names and units BENCHMARK.json lists, so the two cannot drift apart.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds schedd and runs every workload")
	}
	spec := readBenchmarkSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var defined []string
	for _, d := range workloadList() {
		defined = append(defined, d.name)
	}
	if strings.Join(names, ",") != strings.Join(defined, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, code defines %v", names, defined)
	}

	bin := filepath.Join(t.TempDir(), "schedd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/schedd").CombinedOutput(); err != nil {
		t.Fatalf("building schedd: %v\n%s", err, out)
	}
	for _, name := range names {
		for _, trace := range []string{"0", "1"} {
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "1", "--seconds", "0.5", "--trace", trace,
					"--quick", "--schedd", bin, "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var got summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line is not the JSON summary: %v", err)
				}
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Errorf("summary %+v", got)
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(got.Metrics), len(want))
				}
				for _, m := range want {
					g, ok := got.Metrics[m.Name]
					if !ok || g.Unit != m.Unit {
						t.Errorf("metric %s: printed %+v (present %t), want unit %s", m.Name, g, ok, m.Unit)
					}
				}
			})
		}
	}
}

// TestPinnedDigests requires a pinned seed-0 digest for every replay
// workload, so a full-size run always checks its outputs.
func TestPinnedDigests(t *testing.T) {
	var pinned map[string]string
	if err := json.Unmarshal(digestsJSON, &pinned); err != nil {
		t.Fatal(err)
	}
	for _, d := range replayDefs {
		if len(pinned[d.name]) != 64 {
			t.Errorf("no pinned digest for %s", d.name)
		}
	}
}

// TestBenchClean runs the reprovet analyzers over this package, as the
// root module's TestRepoClean does over repro/...: bench is a module of
// its own, so that test does not reach it. The retain analyzer holds the
// recorders here to copying Alloc.Runs instead of storing it.
func TestBenchClean(t *testing.T) {
	pkgs, err := antest.Loader().Load("repro/bench")
	if err != nil {
		t.Fatalf("loading repro/bench: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "repro/bench" {
		t.Fatalf("loaded %d packages, want repro/bench alone", len(pkgs))
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// optional reports which of the scheduler's optional interfaces v
// implements.
func optional(v any) [6]bool {
	_, mono := v.(sched.EstMonotonePolicy)
	_, ctrl := v.(sched.PowerController)
	_, polClone := v.(sched.PolicyCloner)
	_, ctrlClone := v.(sched.ControllerCloner)
	_, rec := v.(sched.Recorder)
	_, obs := v.(sched.GearObserver)
	return [6]bool{mono, ctrl, polClone, ctrlClone, rec, obs}
}

// TestWrappersForwardInterfaces checks that every tracing wrapper exposes
// exactly the optional interfaces of what it wraps: the scheduler changes
// behaviour on those type assertions, so a dropped one would make the
// traced run do different work than the untraced one.
func TestWrappersForwardInterfaces(t *testing.T) {
	gears := dvfs.PaperGearSet()
	st := &layerStats{}
	pol, err := core.NewPolicy(core.Params{BSLDThreshold: 2, WQThreshold: 16}, gears, dvfs.NewTimeModel(scenario.DefaultBeta, gears))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []sched.GearPolicy{pol, sched.FixedGear{Gear: gears.Top()}} {
		w, err := wrapPolicy(p, st)
		if err != nil {
			t.Fatal(err)
		}
		if optional(w) != optional(p) {
			t.Errorf("%s: wrapper implements %v, policy %v", p.Name(), optional(w), optional(p))
		}
	}
	pc, err := altpolicy.NewPowerCap(gears, dvfs.PaperPowerModel(), 0.7, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	w, err := wrapController(pc, st)
	if err != nil {
		t.Fatal(err)
	}
	if optional(w) != optional(pc) {
		t.Errorf("controller wrapper implements %v, PowerCap %v", optional(w), optional(pc))
	}
	if c := w.(sched.ControllerCloner).CloneController(); optional(c) != optional(pc) || c == w {
		t.Errorf("controller clone implements %v, PowerCap %v", optional(c), optional(pc))
	}

	tr := &workload.Trace{Name: "t", CPUs: 4, Jobs: []*workload.Job{{ID: 1, Procs: 1, Runtime: 1, ReqTime: 1}}}
	if _, ok := wrapSource(tr.Source(), st).(workload.PtrSource); !ok {
		t.Error("wrapped arena cursor lost the PtrSource fast path")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sched.(*System).pass.func1":       "repro/internal/sched",
		"repro/internal/cluster.(*intHeap).push (inline)": "repro/internal/cluster",
		"runtime.mallocgc": "runtime",
		"slices.partitionCmpFunc[go.shape.struct { repro/internal/sched.t float64 }]": "slices",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestMissSpecsAreNewAndSeeded checks that the miss workload never asks a
// question twice (or one set-up answered), and that a seed fixes its mix.
func TestMissSpecsAreNewAndSeeded(t *testing.T) {
	draw := func(seed int64) []scenario.Spec {
		used := map[specKey]bool{}
		for _, s := range warmSpecs(whatifJobs) {
			k, err := keyOf(s)
			if err != nil {
				t.Fatal(err)
			}
			used[k] = true
		}
		specs, err := missSpecs(rand.New(rand.NewSource(seed)), 400, whatifJobs, used)
		if err != nil {
			t.Fatal(err)
		}
		if len(used) != len(specs)+len(warmSpecs(whatifJobs)) {
			t.Fatalf("%d distinct questions for %d specs", len(used)-len(warmSpecs(whatifJobs)), len(specs))
		}
		return specs
	}
	a, b := draw(3), draw(3)
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatal("two draws of seed 3 differ")
	}
	capped := 0
	for _, s := range a[:20] {
		if s.Controller.Enabled() {
			capped++
		}
	}
	if capped != 5 {
		t.Errorf("first cycle has %d capped specs, want 5", capped)
	}
}
