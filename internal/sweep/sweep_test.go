package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// traceScenario compiles the baseline scenario over a loaded trace.
func traceScenario(t *testing.T, loader func(string) (*workload.Trace, error), name string) *scenario.Scenario {
	t.Helper()
	tr, err := loader(name)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Compile(scenario.Spec{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// cachedLoader wraps a trace loader so each distinct name is loaded once.
// The returned function is safe for concurrent use.
func cachedLoader(load func(name string) (*workload.Trace, error)) func(name string) (*workload.Trace, error) {
	var mu sync.Mutex
	cache := make(map[string]*workload.Trace)
	return func(name string) (*workload.Trace, error) {
		mu.Lock()
		defer mu.Unlock()
		if tr, ok := cache[name]; ok {
			return tr, nil
		}
		tr, err := load(name)
		if err != nil {
			return nil, err
		}
		cache[name] = tr
		return tr, nil
	}
}

// testLoader generates short preset segments, cached across a test.
func testLoader(jobs int) func(string) (*workload.Trace, error) {
	return cachedLoader(func(name string) (*workload.Trace, error) {
		m, err := wgen.Preset(name)
		if err != nil {
			return nil, err
		}
		m.Jobs = jobs
		return wgen.Generate(m)
	})
}

func TestGridExpansionOrderAndCount(t *testing.T) {
	g := Grid{
		Traces:      []string{"CTC", "SDSC"},
		Policies:    []PolicyConfig{{}, {BSLDThr: 2, WQThr: core.NoWQLimit}},
		SizeFactors: []float64{1, 1.5},
	}
	pts := g.Points()
	if len(pts) != 8 || g.Size() != 8 {
		t.Fatalf("expanded %d points, Size()=%d, want 8", len(pts), g.Size())
	}
	// Canonical nesting: trace outermost, then policy, then size factor.
	want := []string{
		"CTC/noDVFS", "CTC/noDVFS/sf=1.5", "CTC/2/NO", "CTC/2/NO/sf=1.5",
		"SDSC/noDVFS", "SDSC/noDVFS/sf=1.5", "SDSC/2/NO", "SDSC/2/NO/sf=1.5",
	}
	for i, p := range pts {
		if p.Index != i {
			t.Errorf("point %d has Index %d", i, p.Index)
		}
		if p.Label() != want[i] {
			t.Errorf("point %d = %q, want %q", i, p.Label(), want[i])
		}
	}
}

func TestGridDefaultsCollapseEmptyAxes(t *testing.T) {
	g := Grid{Traces: []string{"CTC"}}
	pts := g.Points()
	if len(pts) != 1 {
		t.Fatalf("expanded %d points, want 1", len(pts))
	}
	p := pts[0]
	if !p.Policy.Baseline() || p.SizeFactor != 1 || p.CPUs != 0 ||
		p.Variant != "easy" || p.Selection != "firstfit" || p.Order != "fcfs" ||
		p.Reservations != 0 {
		t.Errorf("defaults not applied: %+v", p)
	}
}

func TestGridFullCrossProduct(t *testing.T) {
	g := Grid{
		Traces:       []string{"CTC"},
		Policies:     []PolicyConfig{{}, {BSLDThr: 1.5, WQThr: 0}, {BSLDThr: 3, WQThr: 4}},
		SizeFactors:  []float64{1, 1.2},
		CPUs:         []int{0, 512},
		Variants:     []string{"easy", "fcfs"},
		Selections:   []string{"firstfit", "nextfit"},
		Orders:       []string{"fcfs", "sjf"},
		Reservations: []int{0, 2},
	}
	if g.Size() != 3*2*2*2*2*2*2 {
		t.Fatalf("Size = %d, want %d", g.Size(), 3*2*2*2*2*2*2)
	}
	pts := g.Points()
	if len(pts) != g.Size() {
		t.Fatalf("Points len %d != Size %d", len(pts), g.Size())
	}
	// The innermost axis varies fastest.
	if pts[0].Reservations != 0 || pts[1].Reservations != 2 {
		t.Errorf("reservations not innermost: %+v %+v", pts[0], pts[1])
	}
	if pts[0].Trace != "CTC" || pts[len(pts)-1].Trace != "CTC" {
		t.Errorf("trace axis broken")
	}
}

func TestGridValidate(t *testing.T) {
	cases := []struct {
		name string
		grid Grid
		ok   bool
	}{
		{"minimal", Grid{Traces: []string{"CTC"}}, true},
		{"full paper axes", Grid{
			Traces:   []string{"CTC"},
			Policies: []PolicyConfig{{BSLDThr: 2, WQThr: core.NoWQLimit}},
		}, true},
		{"no traces", Grid{}, false},
		{"empty trace name", Grid{Traces: []string{""}}, false},
		{"bsld below 1", Grid{Traces: []string{"CTC"},
			Policies: []PolicyConfig{{BSLDThr: 0.5}}}, false},
		{"negative wq", Grid{Traces: []string{"CTC"},
			Policies: []PolicyConfig{{BSLDThr: 2, WQThr: -1}}}, false},
		{"zero size factor", Grid{Traces: []string{"CTC"},
			SizeFactors: []float64{0}}, false},
		{"negative size factor", Grid{Traces: []string{"CTC"},
			SizeFactors: []float64{-1}}, false},
		{"NaN size factor", Grid{Traces: []string{"CTC"},
			SizeFactors: []float64{math.NaN()}}, false},
		{"negative cpus", Grid{Traces: []string{"CTC"}, CPUs: []int{-4}}, false},
		{"cpus override crossed with size factor", Grid{Traces: []string{"CTC"},
			CPUs: []int{512}, SizeFactors: []float64{1, 1.2}}, false},
		{"cpus override with default size", Grid{Traces: []string{"CTC"},
			CPUs: []int{0, 512}}, true},
		{"unknown variant", Grid{Traces: []string{"CTC"},
			Variants: []string{"sjf"}}, false},
		{"unknown selection", Grid{Traces: []string{"CTC"},
			Selections: []string{"worstfit"}}, false},
		{"unknown order", Grid{Traces: []string{"CTC"},
			Orders: []string{"lifo"}}, false},
		{"negative reservations", Grid{Traces: []string{"CTC"},
			Reservations: []int{-1}}, false},
	}
	for _, tc := range cases {
		err := tc.grid.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid grid accepted", tc.name)
		}
	}
}

// The determinism contract of the subsystem: the same grid produces
// byte-identical results whether it runs on 1, 4 or NumCPU workers.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	g := Grid{
		Traces: []string{"CTC", "SDSC"},
		Policies: []PolicyConfig{
			{},
			{BSLDThr: 2, WQThr: 16},
			{BSLDThr: 3, WQThr: core.NoWQLimit},
		},
		SizeFactors: []float64{1, 1.2},
	}
	resolver := &Resolver{Trace: testLoader(150)}
	encode := func(results []Result) []byte {
		t.Helper()
		type row struct {
			Point   Point
			Results any
			Policy  string
			CPUs    int
			Err     string
		}
		rows := make([]row, len(results))
		for i, r := range results {
			rows[i] = row{Point: r.Point, Results: r.Outcome.Results,
				Policy: r.Outcome.Policy, CPUs: r.Outcome.CPUs}
			if r.Err != nil {
				rows[i].Err = r.Err.Error()
			}
		}
		b, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var reference []byte
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		results, err := Sweep(context.Background(), g, resolver, &Pool{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != g.Size() {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(results), g.Size())
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d: run %d failed: %v", workers, i, r.Err)
			}
			if r.Point.Index != i {
				t.Fatalf("workers=%d: slot %d holds point %d", workers, i, r.Point.Index)
			}
		}
		got := encode(results)
		if reference == nil {
			reference = got
			continue
		}
		if string(got) != string(reference) {
			t.Errorf("workers=%d: results differ from 1-worker sweep", workers)
		}
	}
}

// Cancellation must stop dispatching promptly, mark undone runs with the
// context error, and leave no worker goroutines behind.
func TestPoolCancellationPromptNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	sc := traceScenario(t, testLoader(300), "CTC")
	runs := make([]Run, 64)
	for i := range runs {
		runs[i] = Run{Point: Point{Index: i, Trace: "CTC"}, Scenario: sc}
	}
	ctx, cancel := context.WithCancel(context.Background())
	pool := &Pool{Workers: 2}
	var fired int32
	pool.OnProgress = func(done, total int, r Result) {
		if atomic.AddInt32(&fired, 1) == 1 {
			cancel()
		}
	}
	start := time.Now()
	results, err := pool.Execute(ctx, runs)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Execute error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation not prompt: took %v", elapsed)
	}
	completed, skipped := 0, 0
	for i, r := range results {
		if r.Point.Index != i {
			t.Fatalf("slot %d holds point %d", i, r.Point.Index)
		}
		switch {
		case r.Err == nil:
			completed++
		case errors.Is(r.Err, context.Canceled):
			skipped++
		default:
			t.Fatalf("run %d: unexpected error %v", i, r.Err)
		}
	}
	if completed == 0 {
		t.Error("no run completed before cancel")
	}
	if skipped == 0 {
		t.Error("cancellation skipped no runs (cancel came too late to test anything)")
	}
	// All worker goroutines must exit once Execute returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, now)
	}
}

func TestPoolPerRunErrorCapture(t *testing.T) {
	tr, err := testLoader(100)("CTC")
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := scenario.Compile(scenario.Spec{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	// A workload whose factory serves Compile's identity probe and then
	// fails: the execution, not the compilation, must fail.
	var calls atomic.Int32
	failing, err := scenario.Compile(scenario.Spec{Factory: func() (workload.JobSource, error) {
		if calls.Add(1) > 1 {
			return nil, errors.New("source unavailable")
		}
		return tr.Source(), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	runs := []Run{
		{Point: Point{Index: 0}, Scenario: healthy},
		{Point: Point{Index: 1}, Scenario: failing},
		{Point: Point{Index: 2}, Scenario: healthy},
	}
	results, err := (&Pool{Workers: 3}).Execute(context.Background(), runs)
	if err != nil {
		t.Fatalf("Execute error = %v; per-run failures must not abort the sweep", err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy runs failed: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Error("failing-source run reported no error")
	}
	if !reflect.DeepEqual(results[0].Outcome.Results, results[2].Outcome.Results) {
		t.Error("one scenario produced different results")
	}
}

func TestForEachReportsSmallestFailingIndex(t *testing.T) {
	// Many indices fail; the reported one must be the smallest regardless
	// of which worker hits its error first.
	for trial := 0; trial < 20; trial++ {
		err := (&Pool{Workers: 8}).ForEach(context.Background(), 100, func(i int) error {
			if i >= 3 {
				return fmt.Errorf("fail(%d)", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail(3)" {
			t.Fatalf("trial %d: err = %v, want fail(3)", trial, err)
		}
	}
}

func TestForEachStopsEarly(t *testing.T) {
	var calls int32
	sentinel := errors.New("boom")
	err := (&Pool{Workers: 1}).ForEach(context.Background(), 1000, func(i int) error {
		atomic.AddInt32(&calls, 1)
		if i == 5 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if n := atomic.LoadInt32(&calls); n > 7 {
		t.Errorf("ForEach kept going after the error: %d calls", n)
	}
}

func TestForEachEmptyAndCompletes(t *testing.T) {
	if err := (&Pool{}).ForEach(context.Background(), 0, func(int) error {
		t.Error("fn called for n=0")
		return nil
	}); err != nil {
		t.Errorf("n=0 err = %v", err)
	}
	var sum int64
	if err := (&Pool{Workers: 4}).ForEach(context.Background(), 100, func(i int) error {
		atomic.AddInt64(&sum, int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 99*100/2 {
		t.Errorf("indices not covered exactly once: sum = %d", sum)
	}
}

func TestProgressCallbackSequence(t *testing.T) {
	sc := traceScenario(t, testLoader(100), "CTC")
	runs := make([]Run, 10)
	for i := range runs {
		runs[i] = Run{Point: Point{Index: i}, Scenario: sc}
	}
	var seen []int
	pool := &Pool{Workers: 4, OnProgress: func(done, total int, r Result) {
		// Calls are serialized by the pool, so no locking needed here.
		if total != len(runs) {
			t.Errorf("total = %d, want %d", total, len(runs))
		}
		seen = append(seen, done)
	}}
	if _, err := pool.Execute(context.Background(), runs); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(runs) {
		t.Fatalf("%d progress calls, want %d", len(seen), len(runs))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("done sequence %v not 1..%d", seen, len(runs))
		}
	}
}

func TestResolverSpecBuildsPolicy(t *testing.T) {
	r := &Resolver{Trace: testLoader(100)}
	base, err := r.Scenario(Point{Trace: "CTC", SizeFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Baseline() {
		t.Error("baseline point resolved with a gear policy")
	}
	pol, err := r.Scenario(Point{Trace: "CTC", SizeFactor: 1,
		Policy: PolicyConfig{BSLDThr: 2, WQThr: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if pol.Baseline() {
		t.Fatal("policy point resolved without a gear policy")
	}
	if _, err := r.Scenario(Point{Trace: "nosuch", SizeFactor: 1}); err == nil {
		t.Error("unknown trace accepted")
	}
	if _, err := r.Scenario(Point{Trace: "CTC", SizeFactor: 1, Variant: "bogus"}); err == nil {
		t.Error("bogus variant accepted")
	}
}

// The grid's baseline cell must equal the denominator run ExecutePair
// computes for the policy cell's scenario.
func TestSweepBaselineMatchesBaselinePair(t *testing.T) {
	r := &Resolver{Trace: testLoader(150)}
	sc, err := r.Scenario(Point{Trace: "SDSC", SizeFactor: 1,
		Policy: PolicyConfig{BSLDThr: 2, WQThr: core.NoWQLimit}})
	if err != nil {
		t.Fatal(err)
	}
	withPol, base, err := sc.ExecutePair()
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{
		Traces:   []string{"SDSC"},
		Policies: []PolicyConfig{{}, {BSLDThr: 2, WQThr: core.NoWQLimit}},
	}
	results, err := Sweep(context.Background(), g, r, &Pool{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Outcome.Results != base.Results {
		t.Error("grid baseline cell differs from the ExecutePair baseline")
	}
	if results[1].Outcome.Results != withPol.Results {
		t.Error("grid policy cell differs from the ExecutePair policy run")
	}
}

// Regression: a cancellation that arrives only after every run has
// completed must not surface the context error — the result set is fully
// valid and callers would otherwise discard it.
func TestPoolLateCancellationKeepsResults(t *testing.T) {
	sc := traceScenario(t, testLoader(40), "CTC")
	runs := make([]Run, 6)
	for i := range runs {
		runs[i] = Run{Point: Point{Index: i, Trace: "CTC"}, Scenario: sc}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := &Pool{Workers: 1}
	pool.OnProgress = func(done, total int, r Result) {
		if done == total {
			// Cancel while the last result is being reported: every run
			// has already executed, none can be skipped.
			cancel()
		}
	}
	results, err := pool.Execute(ctx, runs)
	if err != nil {
		t.Fatalf("Execute returned %v for a fully completed sweep", err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("run %d carries error %v, want none", i, r.Err)
		}
	}
	// And an empty sweep over an already-canceled context is not an error.
	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := pool.Execute(canceled, nil); err != nil {
		t.Fatalf("empty Execute returned %v, want nil", err)
	}
}
