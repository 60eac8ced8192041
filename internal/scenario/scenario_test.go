package scenario

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/wgen"
	"repro/internal/workload"
)

func ctcSpec() Spec {
	return Spec{
		Workload: "CTC", Jobs: 400,
		Policy: PolicyConfig{BSLDThr: 2, WQThr: 4},
	}
}

func compile(t *testing.T, spec Spec) *Scenario {
	t.Helper()
	sc, err := Compile(spec)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return sc
}

func wantErr(t *testing.T, spec Spec, substr string) {
	t.Helper()
	_, err := Compile(spec)
	if err == nil {
		t.Fatalf("Compile accepted a spec that should fail with %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not mention %q", err, substr)
	}
}

func TestCompileValidation(t *testing.T) {
	zero, neg := 0.0, -1.5
	tr := &workload.Trace{Name: "t", CPUs: 8, Jobs: []*workload.Job{{ID: 1, Procs: 1, Runtime: 10, ReqTime: 10}}}

	wantErr(t, Spec{}, "no workload input")
	wantErr(t, Spec{Workload: "CTC", Trace: tr}, "Workload and Trace all set")

	s := ctcSpec()
	s.Beta = &zero
	wantErr(t, s, "Beta must be a positive finite number")
	s = ctcSpec()
	s.Beta = &neg
	wantErr(t, s, "Beta")
	s = ctcSpec()
	s.ShortJobTh = &zero
	wantErr(t, s, "ShortJobTh must be a positive finite number")

	s = ctcSpec()
	s.Reservations = -1
	wantErr(t, s, "negative reservation depth")
	s = ctcSpec()
	s.SizeFactor = -0.5
	wantErr(t, s, "non-positive size factor")
	s = ctcSpec()
	s.Variant = "roundrobin"
	wantErr(t, s, "roundrobin")
	s = ctcSpec()
	s.Selection = "worstfit"
	wantErr(t, s, "worstfit")
	s = ctcSpec()
	s.Order = "lifo"
	wantErr(t, s, "lifo")
	s = ctcSpec()
	s.Policy.WQThr = -3
	wantErr(t, s, "WQThreshold")
	wantErr(t, Spec{Workload: "NoSuchPreset"}, "unknown workload")
}

func TestHashDeterminismAndSensitivity(t *testing.T) {
	base := compile(t, ctcSpec())
	if again := compile(t, ctcSpec()); again.Hash() != base.Hash() {
		t.Fatalf("same spec hashed differently: %s vs %s", base.Hash(), again.Hash())
	}

	// Result-relevant knobs must move the hash.
	mutations := map[string]func(*Spec){
		"policy":     func(s *Spec) { s.Policy.BSLDThr = 3 },
		"wq":         func(s *Spec) { s.Policy.WQThr = 16 },
		"baseline":   func(s *Spec) { s.Policy = PolicyConfig{} },
		"jobs":       func(s *Spec) { s.Jobs = 500 },
		"workload":   func(s *Spec) { s.Workload = "SDSC" },
		"sizefactor": func(s *Spec) { s.SizeFactor = 1.2 },
		"cpus":       func(s *Spec) { s.CPUs = 99 },
		"variant":    func(s *Spec) { s.Variant = "fcfs" },
		"selection":  func(s *Spec) { s.Selection = "contiguous" },
		"order":      func(s *Spec) { s.Order = "sjf" },
		"resv":       func(s *Spec) { s.Reservations = 4 },
		"beta":       func(s *Spec) { b := 0.3; s.Beta = &b },
		"shortth":    func(s *Spec) { th := 120.0; s.ShortJobTh = &th },
	}
	seen := map[string]string{base.Hash(): "base"}
	for name, mutate := range mutations {
		s := ctcSpec()
		mutate(&s)
		h := compile(t, s).Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutation %q collides with %q: hash %s", name, prev, h)
		}
		seen[h] = name
	}

	// Result-neutral observation knobs must NOT move the hash.
	for name, mutate := range map[string]func(*Spec){
		"keepcollector": func(s *Spec) { s.KeepCollector = true },
		"materialize":   func(s *Spec) { s.Materialize = true },
	} {
		s := ctcSpec()
		mutate(&s)
		if h := compile(t, s).Hash(); h != base.Hash() {
			t.Errorf("result-neutral knob %q moved the hash", name)
		}
	}

	// Explicit defaults hash like omitted ones: β=0.5 set explicitly is the
	// same scenario as β=nil.
	s := ctcSpec()
	b := DefaultBeta
	s.Beta = &b
	if h := compile(t, s).Hash(); h != base.Hash() {
		t.Errorf("explicit default Beta moved the hash")
	}
}

func TestCompilerSharesArenas(t *testing.T) {
	var c Compiler
	spec := ctcSpec()
	spec.Materialize = true
	a := mustCompile(t, &c, spec)
	spec.Policy.BSLDThr = 3 // different policy, same workload
	b := mustCompile(t, &c, spec)
	if a.trace == nil || a.trace != b.trace {
		t.Fatalf("two compilations over one workload did not share the trace arena")
	}

	// Streaming presets share the prototype: every minted source is an
	// independent cursor, but compilation does the summing passes once.
	spec.Materialize = false
	s1 := mustCompile(t, &c, spec)
	src1, err := s1.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	src2, err := s1.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	if src1 == src2 {
		t.Fatalf("factory-backed scenario handed out the same cursor twice")
	}
}

func mustCompile(t *testing.T, c *Compiler, spec Spec) *Scenario {
	t.Helper()
	sc, err := c.Compile(spec)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return sc
}

func TestConcurrentCompileResolvesWorkloadOnce(t *testing.T) {
	var c Compiler
	spec := ctcSpec()
	spec.Materialize = true
	const n = 8
	scs := make([]*Scenario, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc, err := c.Compile(spec)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			scs[i] = sc
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < n; i++ {
		if scs[i].Hash() != scs[0].Hash() {
			t.Fatalf("goroutine %d hash %s != %s", i, scs[i].Hash(), scs[0].Hash())
		}
		if scs[i].trace != scs[0].trace {
			t.Fatalf("goroutine %d got a different trace arena", i)
		}
	}
}

// TestSharedScenarioConcurrentExecute is the refactor's core guarantee:
// N goroutines executing one compiled scenario concurrently (run under
// -race in CI) produce bit-identical results, for both the materialized
// arena path and the cloned-RNG streaming path.
func TestSharedScenarioConcurrentExecute(t *testing.T) {
	for _, materialize := range []bool{true, false} {
		name := "stream"
		if materialize {
			name = "materialized"
		}
		t.Run(name, func(t *testing.T) {
			spec := ctcSpec()
			spec.Materialize = materialize
			sc := compile(t, spec)
			if !sc.ConcurrentSafe() {
				t.Fatalf("compiled scenario not concurrent-safe")
			}
			const n = 8
			outs := make([]Outcome, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					out, err := sc.Execute()
					if err != nil {
						t.Errorf("goroutine %d: %v", i, err)
						return
					}
					outs[i] = out
				}(i)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			for i := 1; i < n; i++ {
				if outs[i].Results != outs[0].Results {
					t.Fatalf("goroutine %d diverged:\n%+v\n%+v", i, outs[0].Results, outs[i].Results)
				}
			}
			if outs[0].Results.Jobs != 400 || outs[0].Results.AvgBSLD <= 0 {
				t.Fatalf("implausible results %+v", outs[0].Results)
			}
		})
	}
}

// TestMaterializedMatchesStreaming pins the bit-identity between the
// shared-arena and cloned-cursor workload paths.
func TestMaterializedMatchesStreaming(t *testing.T) {
	stream := compile(t, ctcSpec())
	spec := ctcSpec()
	spec.Materialize = true
	arena := compile(t, spec)
	if stream.Hash() != arena.Hash() {
		t.Fatalf("materialize moved the hash: %s vs %s", stream.Hash(), arena.Hash())
	}
	a, err := stream.Execute()
	if err != nil {
		t.Fatal(err)
	}
	b, err := arena.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if a.Results != b.Results {
		t.Fatalf("streaming and materialized runs diverged:\n%+v\n%+v", a.Results, b.Results)
	}
}

func TestWithBaseline(t *testing.T) {
	sc := compile(t, ctcSpec())
	base := sc.WithBaseline()
	if !base.Baseline() || sc.Baseline() {
		t.Fatalf("Baseline flags wrong: derived=%v original=%v", base.Baseline(), sc.Baseline())
	}
	if base.Hash() == sc.Hash() {
		t.Fatalf("baseline hash equals policy hash")
	}
	if base.WithBaseline() != base {
		t.Fatalf("WithBaseline on a baseline should return the receiver")
	}
	if base.CPUs() != sc.CPUs() || base.Workload() != sc.Workload() {
		t.Fatalf("baseline changed machine or workload")
	}
	out, baseOut, err := sc.ExecutePair()
	if err != nil {
		t.Fatal(err)
	}
	if out.Results.CompEnergy >= baseOut.Results.CompEnergy {
		t.Fatalf("DVFS energy %g not below baseline %g",
			out.Results.CompEnergy, baseOut.Results.CompEnergy)
	}
}

// boundPolicy is a stateful policy-cum-controller without a clone seam.
type boundPolicy struct{ sched.FixedGear }

func (boundPolicy) Bind(*sched.System) {}

func (boundPolicy) ControlPass(*sched.System, float64) {}

// clonablePolicy adds the seam, counting how often it is exercised.
type clonablePolicy struct {
	boundPolicy
	clones *int
}

func (p clonablePolicy) ClonePolicy() sched.GearPolicy {
	*p.clones++
	return p.boundPolicy
}

func TestConcurrentSafety(t *testing.T) {
	// The factory/trace paths are safe by construction.
	if sc := compile(t, ctcSpec()); !sc.ConcurrentSafe() {
		t.Error("named-workload scenario should be concurrent-safe")
	}

	// A shared single cursor is not.
	src, err := wgen.ResolveSource("CTC", 0, 200, workload.SWFFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if sc := compile(t, Spec{Source: src}); sc.ConcurrentSafe() {
		t.Error("shared-cursor scenario must not be concurrent-safe")
	}

	// Shared recorders are not.
	s := ctcSpec()
	s.ExtraRecorders = []sched.Recorder{sched.MultiRecorder{}}
	if sc := compile(t, s); sc.ConcurrentSafe() {
		t.Error("extra-recorder scenario must not be concurrent-safe")
	}

	// A controller-implementing policy without PolicyCloner shares
	// mutable state.
	s = ctcSpec()
	s.GearPolicy = boundPolicy{}
	if sc := compile(t, s); sc.ConcurrentSafe() {
		t.Error("bound policy without a clone seam must not be concurrent-safe")
	}

	// With the seam it is safe again, and each execution gets its own clone.
	clones := 0
	s = ctcSpec()
	s.GearPolicy = clonablePolicy{clones: &clones}
	sc := compile(t, s)
	if !sc.ConcurrentSafe() {
		t.Error("clonable bound policy should be concurrent-safe")
	}
	sc.executionPolicy()
	sc.executionPolicy()
	if clones != 2 {
		t.Errorf("executionPolicy exercised the clone seam %d times, want 2", clones)
	}
}
