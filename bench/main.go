// Command bench is the repository benchmark. It runs the simulator's
// workloads end to end through the public front doors — scenario.Compile
// and Execute, the sweep pool, wgen, and the cmd/schedd server over HTTP —
// checks every output, and prints one metric per line followed by a JSON
// summary as the last line of standard output:
//
//	bash bench/run.sh --workload paper-grid --seed 0 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (throughput, latency,
// set-up time, peak memory), measured with tracing off. With --trace 1 a
// separately traced run reports per-layer costs instead and writes its
// spans and seam aggregates to a JSON file under --out. --workload all
// runs every workload in its own child process. README.md says why each
// workload exists and how to read the output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	schedd   string // cmd/schedd binary, for whatif-miss
	out      string // directory for trace files and CPU profiles
	quick    bool   // reduced sizes, for the smoke test
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	run  func(o options, w io.Writer) (*report, error)
}

// workloadList returns every workload in the order -workload all runs them.
func workloadList() []workloadDef {
	var defs []workloadDef
	for _, d := range replayDefs {
		d := d
		defs = append(defs, workloadDef{d.name, func(o options, w io.Writer) (*report, error) { return runReplay(d, o, w) }})
	}
	return append(defs, workloadDef{"whatif-miss", runWhatif})
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var names []string
	for _, d := range workloadList() {
		names = append(names, d.name)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	trace := 0
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 0, "input seed (0 replays the pinned presets)")
	fs.Float64Var(&o.seconds, "seconds", 25, "how long one run measures")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.StringVar(&o.schedd, "schedd", "", "cmd/schedd binary for the whatif-miss workload")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for trace files and CPU profiles")
	fs.BoolVar(&o.quick, "quick", false, "reduced sizes (smoke test)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case o.workload == "":
		return o, errors.New("bench: -workload is required")
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("bench: -trace must be 0 or 1, got %d", trace)
	case o.seed < 0:
		return o, fmt.Errorf("bench: -seed must not be negative, got %d", o.seed)
	case !(o.seconds > 0):
		return o, fmt.Errorf("bench: -seconds must be positive, got %v", o.seconds)
	}
	o.trace = trace == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if o.workload == "all" {
		return runAll(args, stdout, stderr)
	}
	var def *workloadDef
	for _, d := range workloadList() {
		if d.name == o.workload {
			d := d
			def = &d
		}
	}
	if def == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	fmt.Fprintln(stdout, hostFingerprint())
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %t quick %t\n", o.workload, o.seed, o.seconds, o.trace, o.quick)
	rep, err := def.run(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, so peak memory is
// not shared between workloads.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	status := 0
	for _, d := range workloadList() {
		fmt.Fprintf(stdout, "== %s\n", d.name)
		cmd := exec.Command(self, append(withoutWorkloadFlag(args), "--workload", d.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", d.name, err)
			status = 1
		}
	}
	return status
}

// withoutWorkloadFlag drops -workload/--workload and its value from args.
func withoutWorkloadFlag(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		switch {
		case a == "workload":
			i++
		case strings.HasPrefix(a, "workload="):
		default:
			out = append(out, args[i])
		}
	}
	return out
}

// metricLine is one reported metric. samples, when set, are the
// per-operation measurements the value summarizes; their spread is printed
// next to it.
type metricLine struct {
	name, unit string
	value      float64
	samples    []float64
}

// report collects a run's metrics and output checks.
type report struct {
	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
	metrics   []metricLine
}

// add records a metric.
func (r *report) add(name, unit string, value float64, samples []float64) {
	r.metrics = append(r.metrics, metricLine{name: name, unit: unit, value: value, samples: samples})
}

// check records a failed output check unless ok holds. It is safe for
// concurrent use.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// operation counts one attempted operation, failed when err is set. It is
// safe for concurrent use.
func (r *report) operation(err error, what string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("%s: %v", what, err))
	}
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// summary is the JSON object the last line of standard output carries.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one `name value unit` line per metric (with the spread of
// its samples), one line per failed check, and the JSON summary last.
func (r *report) print(w io.Writer) error {
	s := summary{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		line := fmt.Sprintf("%s %s %s", m.name, formatFloat(m.value), m.unit)
		if len(m.samples) > 0 {
			line += fmt.Sprintf("  (median %s min %s max %s n=%d)", formatFloat(quantile(m.samples, 0.5)),
				formatFloat(slices.Min(m.samples)), formatFloat(slices.Max(m.samples)), len(m.samples))
		}
		fmt.Fprintln(w, line)
		s.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "check failed:", p)
	}
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// quantile is the p-quantile of xs with linear interpolation between order
// statistics (xs is not modified).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	h := p * float64(len(s)-1)
	i := int(h)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

// hostFingerprint names the machine and the code a run measured: CPU
// model, processor count, GOMAXPROCS, Go version and the git revision when
// the working directory is a git checkout.
func hostFingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	rev := "none"
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			rev = strings.TrimSpace(string(b))
		}
	}
	return fmt.Sprintf("host cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
}

// tracePath is where a traced run writes the named artifact.
func tracePath(o options, suffix string) string {
	return filepath.Join(o.out, "trace", fmt.Sprintf("%s-seed%d%s", o.workload, o.seed, suffix))
}
