package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixture baseline carries one entry per gated benchmark: 100k
// allocs/op for the EASY Million replay, 1M allocs/op for the
// conservative FULL Million, 10 MB streamed peak heap, and a capped/off
// controller ratio of 0.95.
const baselineJSON = `{
  "entries": [
    {"benchmark": "BenchmarkControllerMillion", "results": [
      {"jobs": 1000000, "mode": "off", "jobs_per_s": 1000000},
      {"jobs": 1000000, "mode": "capped", "jobs_per_s": 950000}
    ]},
    {"benchmark": "BenchmarkStreamingMillionHeap", "results": [
      {"jobs": 1000000, "mode": "streamed", "peak_heap_mb": 10.0}
    ]},
    {"benchmark": "BenchmarkHotPathMillion", "results": [
      {"jobs": 1000000, "allocs_per_op": 100000}
    ]},
    {"benchmark": "BenchmarkConservativeFullMillion", "results": [
      {"jobs": 1000000, "allocs_per_op": 1000000}
    ]}
  ]
}`

const benchOutPass = `goos: linux
BenchmarkHotPathMillion/jobs=100000-8          	       1	 90000000 ns/op	   1100000 jobs/s	  900000 allocs/op
BenchmarkHotPathMillion/jobs=1000000-8         	       1	900000000 ns/op	   1100000 jobs/s	  110000 allocs/op
BenchmarkConservativeFullMillion/jobs=1000000-8	       1	5000000000 ns/op	   200000 jobs/s	 1050000 allocs/op
BenchmarkControllerMillion/jobs=1000000/off-8  	       1	1000000000 ns/op	   1000000 jobs/s
BenchmarkControllerMillion/jobs=1000000/capped-8	       1	1050000000 ns/op	    950000 jobs/s
BenchmarkStreamingMillionHeap/jobs=1000000/streamed-8	1	2000000000 ns/op	     11.0 peak-heap-MB
PASS
`

// writeFixtures writes the baseline and bench output into a temporary
// directory and returns their paths.
func writeFixtures(t *testing.T, baseline, benchOut string) (benchPath, basePath string) {
	t.Helper()
	dir := t.TempDir()
	basePath = filepath.Join(dir, "BENCH_sched.json")
	benchPath = filepath.Join(dir, "bench.out")
	if err := os.WriteFile(basePath, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(benchPath, []byte(benchOut), 0o644); err != nil {
		t.Fatal(err)
	}
	return benchPath, basePath
}

// runGates evaluates the gates of the default table whose labels are
// listed against the fixtures, returning run's error and everything
// printed.
func runGates(t *testing.T, baseline, benchOut string, labels ...string) (string, error) {
	t.Helper()
	var gs []gate
	for _, g := range gates {
		for _, l := range labels {
			if g.label == l {
				gs = append(gs, g)
			}
		}
	}
	if len(gs) != len(labels) {
		t.Fatalf("gate table lacks one of %v", labels)
	}
	benchPath, basePath := writeFixtures(t, baseline, benchOut)
	var out strings.Builder
	err := run(gs, benchPath, basePath, &out)
	return out.String(), err
}

func TestReplanningGatePasses(t *testing.T) {
	out, err := runGates(t, baselineJSON, benchOutPass, "replanning")
	if err != nil {
		t.Fatalf("gate failed on a healthy run: %v", err)
	}
	if !strings.Contains(out, "replanning 1050000.0 allocs/op; baseline 1000000.0, ceiling 1200000.0") {
		t.Errorf("missing gate report, got:\n%s", out)
	}
	if !strings.Contains(out, "benchgate: ok") {
		t.Errorf("missing ok line, got:\n%s", out)
	}
}

func TestReplanningGateFailsOnRegression(t *testing.T) {
	regressed := strings.Replace(benchOutPass, "1050000 allocs/op", "1300000 allocs/op", 1)
	_, err := runGates(t, baselineJSON, regressed, "replanning")
	if err == nil {
		t.Fatal("gate passed 1.3M allocs/op against a 1.2M ceiling")
	}
	if !strings.Contains(err.Error(), "replanning grew 30.0%") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestControllerGateFailsOnRegression(t *testing.T) {
	// capped drops to 0.70x of off against a 0.95x baseline: below the
	// 0.76x floor.
	regressed := strings.Replace(benchOutPass, "    950000 jobs/s", "    700000 jobs/s", 1)
	_, err := runGates(t, baselineJSON, regressed, "controller")
	if err == nil {
		t.Fatal("gate passed a 0.70x run against a 0.76x floor")
	}
	if !strings.Contains(err.Error(), "controller ratio regressed") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestGateFailsOnMissingBenchLine(t *testing.T) {
	// The run dropped the 1M-job hot-path sub-run; the 100k one must not
	// stand in for it, and the gate must fail loudly rather than treat the
	// hole as a pass.
	trimmed := strings.Replace(benchOutPass, "BenchmarkHotPathMillion/jobs=1000000-8", "BenchmarkSomethingElse-8", 1)
	_, err := runGates(t, baselineJSON, trimmed, "hot-path")
	if err == nil {
		t.Fatal("gate passed with the hot-path bench line missing")
	}
	if !strings.Contains(err.Error(), "no bench line matching BenchmarkHotPathMillion/jobs=1000000") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestGateFailsOnMissingBaselineRows(t *testing.T) {
	// A baseline whose hot-path entry predates the allocs_per_op row: the
	// gate cannot establish a ceiling and must fail.
	old := strings.Replace(baselineJSON, `{"jobs": 1000000, "allocs_per_op": 100000}`, `{"jobs": 1000000, "jobs_per_s": 1}`, 1)
	_, err := runGates(t, old, benchOutPass, "hot-path")
	if err == nil {
		t.Fatal("gate passed without a usable baseline entry")
	}
	if !strings.Contains(err.Error(), "no BenchmarkHotPathMillion entry with a allocs_per_op row") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestEmptyGateTableReadsNothing(t *testing.T) {
	// With no gates, nothing is read: even files full of garbage cannot
	// fail the run.
	benchPath, basePath := writeFixtures(t, "not json", "no bench lines")
	var out strings.Builder
	if err := run(nil, benchPath, basePath, &out); err != nil {
		t.Fatalf("an empty table still read its inputs: %v", err)
	}
	if !strings.Contains(out.String(), "benchgate: ok") {
		t.Errorf("missing ok line, got:\n%s", out.String())
	}
}

func TestGatesReadOneBenchOutput(t *testing.T) {
	// The whole default table evaluates against one bench invocation's
	// output.
	out, err := runGates(t, baselineJSON, benchOutPass, "hot-path", "heap", "replanning", "controller")
	if err != nil {
		t.Fatalf("gates failed on a healthy run: %v", err)
	}
	for _, want := range []string{
		"hot-path 110000.0 allocs/op",
		"heap 11.0 peak-heap-MB",
		"replanning 1050000.0 allocs/op",
		"controller capped/off ratio 0.95x",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q, got:\n%s", want, out)
		}
	}
}
