package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one coarse interval of a traced run: the run, a set-up, a
// compile, a replay round, one execution or one HTTP request. Times are
// nanoseconds since the run started; parent 0 is the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs stay free of it. It is safe for
// concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(parent int, layer, op string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Op: op, Start: now})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// add records an already-finished span.
func (t *tracer) add(parent int, layer, op string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Op: op,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// seamRecord is one (layer, op) aggregate in the trace file.
type seamRecord struct {
	Layer string `json:"layer"`
	Op    string `json:"op"`
	seamAgg
}

// write stores the spans and the seam aggregates of st as JSON at path.
func (t *tracer) write(path string, st *layerStats) error {
	var seams []seamRecord
	for i, a := range st.seams {
		if a.Count > 0 {
			seams = append(seams, seamRecord{Layer: seamNames[i].layer, Op: seamNames[i].op, seamAgg: a})
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(struct {
		Spans []span       `json:"spans"`
		Seams []seamRecord `json:"seams"`
	}{t.spans, seams}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuProfile samples the benchmark process while the traced work runs and
// reads the Go runtime's CPU and allocation counters around it.
type cpuProfile struct {
	path string
	f    *os.File
	rt0  []metrics.Sample
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func startCPUProfile(path string) (*cpuProfile, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f, rt0: readRuntime()}, nil
}

// runtimeDelta is what the Go runtime counted between start and stop.
type runtimeDelta struct {
	gcFrac     float64 // GC share of all CPU time the process used
	allocBytes float64
}

func (p *cpuProfile) stop() (runtimeDelta, error) {
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	var d runtimeDelta
	delta := func(i int) float64 {
		switch rt1[i].Value.Kind() {
		case metrics.KindFloat64:
			return rt1[i].Value.Float64() - p.rt0[i].Value.Float64()
		case metrics.KindUint64:
			return float64(rt1[i].Value.Uint64() - p.rt0[i].Value.Uint64())
		}
		return 0
	}
	if total := delta(1); total > 0 {
		d.gcFrac = delta(0) / total
	}
	d.allocBytes = delta(2)
	return d, p.f.Close()
}

// cpuShares aggregates the profile's flat CPU samples per package with
// `go tool pprof -top`, returning each package's share of all samples.
func cpuShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	shares := map[string]float64{}
	body := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 5 && f[0] == "flat" && f[1] == "flat%" {
			body = true
			continue
		}
		if !body || len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: unexpected row %q", sc.Text())
		}
		shares[funcPackage(strings.Join(f[5:], " "))] += pct / 100
	}
	return shares, sc.Err()
}

// funcPackage is the import path of a symbolized Go function name such as
// "repro/internal/sched.(*System).pass.func1". A generic instantiation
// belongs to the package that declares it, not to its type arguments.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
