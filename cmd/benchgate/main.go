// Command benchgate guards the scheduler hot path's allocation behavior,
// the streaming pipeline's memory footprint and the power-controller
// layer's overhead in CI: it parses `go test -bench` output and compares
// each gated quantity against the newest committed entry of
// BENCH_sched.json carrying it, failing the build on a regression beyond
// the gate's allowance. The gates are the rows of the gates table:
//
//   - hot-path: allocs/op of the EASY Million replay
//     (BenchmarkHotPathMillion, 1M jobs). A deterministic replay's
//     allocation count is host-independent, so the absolute number is a
//     stable ceiling: per-job allocations creeping back into the streamed,
//     pooled pass loop show up as a multiple of the baseline.
//   - heap: the streamed Million replay's peak-heap-MB high-water
//     (BenchmarkStreamingMillionHeap). An O(trace) slice sneaking back
//     into the streaming path shows up as a ~5x jump.
//   - replanning: allocs/op of the conservative FULL-Million replay
//     (BenchmarkConservativeFullMillion), which exercises the persistent
//     profile, its chunked skyline and reservation indexes and the chunked
//     release index; chunk recycling or scratch reuse breaking there shows
//     up as allocations.
//   - controller: the EASY Million capped/off throughput ratio
//     (BenchmarkControllerMillion). The capped mode runs the PI power-cap
//     controller at CapFrac=1, where it meters and decides every pass but
//     never actuates, so the ratio isolates the controller layer's
//     observe/decide cost. Both sub-runs come from one invocation on one
//     host, so the ratio cancels runner hardware out.
//
// Wall-clock regressions of the replay paths are the repo benchmark's job
// (BENCHMARK.json: dvfs-queue, thunder-conservative), which compares
// repeated runs against the parent commit on one host.
//
// Usage:
//
//	go test -run '^$' -bench 'HotPathMillion|StreamingMillionHeap|ConservativeFullMillion|ControllerMillion' -benchtime 1x . | tee bench.out
//	go run ./cmd/benchgate -bench bench.out
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// gate is one guarded quantity. A ceiling gate holds the sub-run's
// metric at most allowance above its baseline; a ratio gate (base set)
// holds the optMode/baseMode jobs/s ratio at most allowance below the
// baseline ratio.
type gate struct {
	label     string
	benchmark string
	jobs      int
	// mode is the sub-run under benchmark/jobs=N (empty for none); for a
	// ratio gate, the numerator mode.
	mode string
	// unit is the bench-output metric a ceiling gate reads and field the
	// BENCH_sched.json row field holding its baseline.
	unit, field string
	// base is a ratio gate's denominator mode.
	base      string
	allowance float64
}

// gates is the table run evaluates, in order.
var gates = []gate{
	{label: "hot-path", benchmark: "BenchmarkHotPathMillion", jobs: 1_000_000,
		unit: "allocs/op", field: "allocs_per_op", allowance: 0.20},
	{label: "heap", benchmark: "BenchmarkStreamingMillionHeap", jobs: 1_000_000, mode: "streamed",
		unit: "peak-heap-MB", field: "peak_heap_mb", allowance: 0.20},
	{label: "replanning", benchmark: "BenchmarkConservativeFullMillion", jobs: 1_000_000,
		unit: "allocs/op", field: "allocs_per_op", allowance: 0.20},
	{label: "controller", benchmark: "BenchmarkControllerMillion", jobs: 1_000_000, mode: "capped",
		base: "off", allowance: 0.20},
}

// benchFile mirrors the subset of BENCH_sched.json the gates need; each
// result row stays a generic object so a gate can name the field it
// reads.
type benchFile struct {
	Entries []struct {
		Benchmark string           `json:"benchmark"`
		Results   []map[string]any `json:"results"`
	} `json:"entries"`
}

func main() {
	benchPath := flag.String("bench", "bench.out", "go test -bench output to scan")
	basePath := flag.String("baseline", "BENCH_sched.json", "committed performance trajectory")
	flag.Parse()
	if err := run(gates, *benchPath, *basePath, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// run evaluates every gate in order and returns the first violation or
// read error.
func run(gs []gate, benchPath, basePath string, out io.Writer) error {
	for _, g := range gs {
		var err error
		if g.base != "" {
			err = gateRatio(out, g, benchPath, basePath)
		} else {
			err = gateCeiling(out, g, benchPath, basePath)
		}
		if err != nil {
			return err
		}
	}
	fmt.Fprintln(out, "benchgate: ok")
	return nil
}

// subRun names a gate's sub-run in the bench output.
func (g gate) subRun(mode string) string {
	s := fmt.Sprintf("%s/jobs=%d", g.benchmark, g.jobs)
	if mode != "" {
		s += "/" + mode
	}
	return s
}

// gateCeiling holds the measured metric at most allowance above the
// newest committed baseline row.
func gateCeiling(out io.Writer, g gate, benchPath, basePath string) error {
	base, err := baselineValue(basePath, g.benchmark, g.jobs, g.mode, g.field)
	if err != nil {
		return err
	}
	v, err := measuredMetric(benchPath, g.subRun(g.mode), g.unit)
	if err != nil {
		return err
	}
	ceiling := base * (1 + g.allowance)
	fmt.Fprintf(out, "benchgate: %s %.1f %s; baseline %.1f, ceiling %.1f\n", g.label, v, g.unit, base, ceiling)
	if v > ceiling {
		return fmt.Errorf("%s grew %.1f%% (> %.0f%% allowed): %.1f %s > %.1f",
			g.label, 100*(v/base-1), 100*g.allowance, v, g.unit, ceiling)
	}
	return nil
}

// gateRatio holds the optMode/baseMode jobs/s ratio at most allowance
// below the newest committed baseline ratio. Both sub-runs come from the
// same bench invocation on the same host, so the ratio cancels runner
// hardware out.
func gateRatio(out io.Writer, g gate, benchPath, basePath string) error {
	ref, err := baselineValue(basePath, g.benchmark, g.jobs, g.base, "jobs_per_s")
	if err != nil {
		return err
	}
	opt, err := baselineValue(basePath, g.benchmark, g.jobs, g.mode, "jobs_per_s")
	if err != nil {
		return err
	}
	base := opt / ref
	mRef, err := measuredMetric(benchPath, g.subRun(g.base), "jobs/s")
	if err != nil {
		return err
	}
	mOpt, err := measuredMetric(benchPath, g.subRun(g.mode), "jobs/s")
	if err != nil {
		return err
	}
	ratio := mOpt / mRef
	floor := base * (1 - g.allowance)
	fmt.Fprintf(out, "benchgate: %s %s/%s ratio %.2fx (%s %.0f, %s %.0f jobs/s); baseline %.2fx, floor %.2fx\n",
		g.label, g.mode, g.base, ratio, g.mode, mOpt, g.base, mRef, base, floor)
	if ratio < floor {
		return fmt.Errorf("%s ratio regressed %.1f%% (> %.0f%% allowed): %.2fx < %.2fx",
			g.label, 100*(1-ratio/base), 100*g.allowance, ratio, floor)
	}
	return nil
}

// baselineValue returns the given field of the newest BENCH_sched.json
// entry of the benchmark carrying a positive value for it in a row at
// the given job count and mode (a row without a mode matches "").
func baselineValue(path, benchmark string, jobs int, mode, field string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	for i := len(bf.Entries) - 1; i >= 0; i-- {
		if bf.Entries[i].Benchmark != benchmark {
			continue
		}
		for _, row := range bf.Entries[i].Results {
			rj, _ := row["jobs"].(float64)
			rm, _ := row["mode"].(string)
			v, _ := row[field].(float64)
			if rj == float64(jobs) && rm == mode && v > 0 {
				return v, nil
			}
		}
	}
	return 0, fmt.Errorf("%s: no %s entry with a %s row at jobs=%d mode=%q", path, benchmark, field, jobs, mode)
}

// measuredMetric scans go-test bench output for the target sub-run and
// returns the value reported with the given unit. Benchmark lines read:
// Name-P  N  <value> <unit>  <value> <unit> ...
// The target must match the name up to the -P suffix, so a sub-run is
// never mistaken for a deeper one it prefixes.
func measuredMetric(path, target, unit string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || !matchesSubRun(fields[0], target) {
			continue
		}
		for i := 2; i < len(fields)-1; i++ {
			if fields[i+1] == unit {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return 0, fmt.Errorf("parsing %q: %w", fields[i], err)
				}
				return v, nil
			}
		}
		return 0, fmt.Errorf("bench line for %s carries no %s metric", target, unit)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no bench line matching %s", path, target)
}

// matchesSubRun reports whether a bench line's name is target, optionally
// followed by go test's -GOMAXPROCS suffix.
func matchesSubRun(name, target string) bool {
	rest, ok := strings.CutPrefix(name, target)
	if !ok {
		return false
	}
	if rest == "" {
		return true
	}
	_, err := strconv.Atoi(strings.TrimPrefix(rest, "-"))
	return strings.HasPrefix(rest, "-") && err == nil
}
