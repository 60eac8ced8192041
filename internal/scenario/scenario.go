// Package scenario compiles a run description into an immutable,
// goroutine-safe value: the scenario. A scenario owns everything one
// simulation needs — the resolved platform (gears, power model, β, the
// short-job threshold), the machine size, the scheduling options, the gear
// policy, and a workload *factory* that hands every caller an independent
// cursor over one shared workload — plus a canonical content hash
// identifying the run for caching and deduplication.
//
// The package exists because simulation-as-a-service needs thousands of
// concurrent what-if queries over shared workloads: SWF logs are parsed
// once into a shared arena and every execution walks it through its own
// cursor, wgen presets are constructed once and stream from cloned RNG
// cursors, and stateful gear policies are cloned per execution (see
// sched.PolicyCloner), so Execute is safe to call from any number of
// goroutines on one compiled scenario and — the whole pipeline being
// deterministic — every call returns bit-identical Results.
//
// Compile once, execute many:
//
//	sc, err := scenario.Compile(scenario.Spec{
//		Workload: "CTC",
//		Policy:   scenario.PolicyConfig{BSLDThr: 2, WQThr: 16},
//	})
//	out, err := sc.Execute() // from as many goroutines as you like
//
// Every simulation in the repository runs this way: the CLIs, examples,
// experiments and benchmarks build a Spec and compile it, the sweep grid
// expands to scenarios, and cmd/schedd serves scenarios over HTTP with an
// LRU cache keyed by Scenario.Hash.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workload"
)

// DefaultBeta is the β of the execution time model the paper assumes for
// all jobs.
const DefaultBeta = 0.5

// PolicyConfig selects the paper's gear policy as pure data. The zero
// value is the no-DVFS baseline (top gear for every job). sweep.PolicyConfig
// aliases this type, so grid JSON and what-if requests share one shape.
type PolicyConfig struct {
	// BSLDThr is the BSLD threshold of the paper's algorithm; 0 selects
	// the baseline without DVFS.
	BSLDThr float64 `json:"bsld_thr"`
	// WQThr is the wait-queue threshold (core.NoWQLimit = "NO LIMIT");
	// ignored for baselines. JSON accepts a number or the string "NO".
	WQThr int `json:"wq_thr"`
	// StrictBackfill selects the literal Figure 2 reading, where the BSLD
	// test gates backfills even at the top gear
	// (core.Params.StrictBackfillBSLD).
	StrictBackfill bool `json:"strict_backfill,omitempty"`
	// Boost enables the §7 dynamic frequency boost above BoostWQ waiters.
	Boost   bool `json:"boost,omitempty"`
	BoostWQ int  `json:"boost_wq,omitempty"`
}

// UnmarshalJSON decodes the policy object, accepting "NO" (any case) for
// wq_thr. Unknown fields are rejected here because a custom unmarshaler
// escapes the outer decoder's DisallowUnknownFields.
func (p *PolicyConfig) UnmarshalJSON(data []byte) error {
	type plain PolicyConfig
	var raw struct {
		plain
		WQThr json.RawMessage `json:"wq_thr"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return fmt.Errorf("policy: %w", err)
	}
	*p = PolicyConfig(raw.plain)
	if raw.WQThr != nil && json.Unmarshal(raw.WQThr, &p.WQThr) != nil {
		var no string
		if json.Unmarshal(raw.WQThr, &no) != nil || !strings.EqualFold(no, "NO") {
			return fmt.Errorf(`policy: wq_thr must be a number or "NO", got %s`, raw.WQThr)
		}
		p.WQThr = core.NoWQLimit
	}
	return nil
}

// Baseline reports whether the configuration runs without DVFS.
func (p PolicyConfig) Baseline() bool { return p.BSLDThr == 0 }

// Label is a compact caption ("2/NO", "1.5/4", "2/NO+strict",
// "noDVFS").
func (p PolicyConfig) Label() string {
	if p.Baseline() {
		return "noDVFS"
	}
	wq := fmt.Sprint(p.WQThr)
	if p.WQThr == core.NoWQLimit {
		wq = "NO"
	}
	label := fmt.Sprintf("%g/%s", p.BSLDThr, wq)
	if p.StrictBackfill {
		label += "+strict"
	}
	if p.Boost {
		label += fmt.Sprintf("+boost%d", p.BoostWQ)
	}
	return label
}

// Validate reports the first problem with the configuration.
func (p PolicyConfig) Validate() error {
	if p.Baseline() {
		return nil
	}
	return p.params(0).Validate()
}

// params returns the core.Params the configuration describes at the
// short-job threshold th (0 selects core's default).
func (p PolicyConfig) params(th float64) core.Params {
	return core.Params{
		BSLDThreshold:      p.BSLDThr,
		WQThreshold:        p.WQThr,
		ShortJobThreshold:  th,
		StrictBackfillBSLD: p.StrictBackfill,
		Boost:              p.Boost,
		BoostWQ:            p.BoostWQ,
	}
}

// PowerModelConfig sets the constants of the power model
// (dvfs.NewPowerModel), which the paper calls "platform dependent and
// adjustable in configuration files" (§4). Each nil field selects the
// paper's value (dvfs.PaperACRunning, PaperActivityRatio,
// PaperStaticFraction); the model is derived over the spec's own gears.
type PowerModelConfig struct {
	// ACRunning is A·C of a running processor (1.0); it only sets the
	// power unit.
	ACRunning *float64 `json:"ac_running,omitempty"`
	// ActivityRatio is A_running / A_idle (2.5).
	ActivityRatio *float64 `json:"activity_ratio,omitempty"`
	// StaticFraction is the static share of a running processor's power
	// at the top gear (0.25).
	StaticFraction *float64 `json:"static_fraction,omitempty"`
}

// build resolves the defaults and derives the model over gears.
func (c *PowerModelConfig) build(gears dvfs.GearSet) (*dvfs.PowerModel, error) {
	if c == nil {
		c = &PowerModelConfig{}
	}
	return dvfs.NewPowerModel(gears, valueOr(c.ACRunning, dvfs.PaperACRunning),
		valueOr(c.ActivityRatio, dvfs.PaperActivityRatio),
		valueOr(c.StaticFraction, dvfs.PaperStaticFraction))
}

// valueOr is *v when set, def otherwise.
func valueOr(v *float64, def float64) float64 {
	if v == nil {
		return def
	}
	return *v
}

// ControllerConfig selects a per-pass power controller as pure data —
// the wire-format counterpart of Spec.GearController, the same way
// PolicyConfig mirrors Spec.GearPolicy. The zero value disables the
// control loop entirely: no controller is compiled, the canonical hash
// is unchanged, and the run is byte-identical to a controller-free one.
type ControllerConfig struct {
	// Kind names the controller; "" and "powercap" select the PI
	// power-cap controller (the only kind today).
	Kind string `json:"kind,omitempty"`
	// CapFrac is the power cap as a fraction of the machine's maximum
	// draw (all processors active at the top gear), in (0, 1]. Zero
	// disables the controller — cap-disabled and controller-free are the
	// same run.
	CapFrac float64 `json:"cap_frac,omitempty"`
	// Kp and Ki override the PI gains (0 selects the defaults).
	Kp float64 `json:"kp,omitempty"`
	Ki float64 `json:"ki,omitempty"`
	// EcoOnly restricts actuation to jobs carrying the Eco opt-in flag
	// (see workload.SWFFilter.EcoUsers).
	EcoOnly bool `json:"eco_only,omitempty"`
}

// Enabled reports whether the configuration compiles to a controller.
func (c ControllerConfig) Enabled() bool { return c.CapFrac != 0 }

// Label is a compact caption ("cap0.7", "cap0.7eco", "nocap").
func (c ControllerConfig) Label() string {
	if !c.Enabled() {
		return "nocap"
	}
	eco := ""
	if c.EcoOnly {
		eco = "eco"
	}
	return fmt.Sprintf("cap%g%s", c.CapFrac, eco)
}

// Spec describes a run before compilation. The JSON-visible fields form
// the data-level description of a run, complete down to the power model's
// constants: it is the body cmd/schedd accepts over the wire and the file
// bsldsim -config reads, and the canonical hash covers it. The
// `json:"-"` fields are escape hatches for callers that already hold
// resolved objects (a generated trace, a streaming source, a pre-built
// gear policy or controller) and result-neutral observation knobs.
type Spec struct {
	// Workload names the workload: a wgen preset (CTC, Million, ...) or a
	// path ending in .swf. Exactly one of Workload, Trace, Source and
	// Factory must be set.
	Workload string `json:"workload,omitempty"`
	// Jobs overrides a preset's trace length (0 keeps the model's native
	// length; negative is an error); ignored for .swf workloads.
	Jobs int `json:"jobs,omitempty"`
	// SWFCPUs supplies the system size for .swf logs without a MaxProcs
	// header (0 requires the header).
	SWFCPUs int `json:"swf_cpus,omitempty"`
	// Filter cleans .swf workloads (status-based drops); its EcoUsers
	// hook additionally tags preset jobs ("*" opts in every job, user
	// IDs match models with a user pool).
	Filter workload.SWFFilter `json:"filter,omitempty"`
	// Materialize generates preset workloads once into a shared trace
	// arena instead of re-streaming from cloned RNG cursors: executions
	// then replay the shared slice (stable-pointer fast path) at the cost
	// of O(trace) resident memory. Results are bit-identical either way.
	Materialize bool `json:"-"`

	// Trace is a pre-materialized workload arena: executions share the
	// (immutable) job slice, each through its own cursor.
	Trace *workload.Trace `json:"-"`
	// Source is a single pre-built stream. The scheduler rewinds it per
	// execution, so sequential re-execution works (ExecutePair), but a
	// scenario compiled from one shared cursor is NOT safe for concurrent
	// Execute — see Scenario.ConcurrentSafe.
	Source workload.JobSource `json:"-"`
	// Factory builds an independent source per call; it must be safe for
	// concurrent use (each call returns a source no other caller holds).
	Factory func() (workload.JobSource, error) `json:"-"`

	// Policy is the paper's gear policy as data; the zero value is the
	// no-DVFS baseline.
	Policy PolicyConfig `json:"policy"`
	// GearPolicy overrides Policy with a pre-built policy object. If it
	// is stateful it should implement sched.PolicyCloner so concurrent
	// executions do not share mutable state.
	GearPolicy sched.GearPolicy `json:"-"`

	// Controller selects the per-pass power controller as data; the zero
	// value runs without one (byte-identical to the pre-controller path).
	Controller ControllerConfig `json:"controller,omitempty"`
	// GearController overrides Controller with a pre-built controller
	// object. If it is stateful it should implement
	// sched.ControllerCloner so concurrent executions do not share
	// mutable state.
	GearController sched.PowerController `json:"-"`

	// SizeFactor scales the machine relative to the workload's original
	// system (1.0 = original, 1.2 = "20% increased"). Zero means 1.0.
	SizeFactor float64 `json:"size_factor,omitempty"`
	// CPUs overrides the machine size outright when non-zero. The
	// resolved size must lie in [1, math.MaxInt32].
	CPUs int `json:"cpus,omitempty"`

	// Variant is the base scheduling policy: easy (default), fcfs or
	// conservative.
	Variant string `json:"variant,omitempty"`
	// Selection is the resource selection policy: firstfit (default),
	// contiguous or nextfit.
	Selection string `json:"selection,omitempty"`
	// Order is the queue discipline: fcfs (default) or sjf.
	Order string `json:"order,omitempty"`
	// Reservations is the EASY reservation depth (0/1 classic).
	Reservations int `json:"reservations,omitempty"`

	// Gears is the DVFS gear set (nil → the paper's Table 2 set).
	Gears dvfs.GearSet `json:"gears,omitempty"`
	// PowerModel sets the power model's constants (nil → the paper's);
	// the model is derived over Gears.
	PowerModel *PowerModelConfig `json:"power_model,omitempty"`
	// Beta is the β of the execution time model. nil selects the paper's
	// DefaultBeta; a set value must be positive — an explicit zero is an
	// error, never silently the default (use nil for the default).
	Beta *float64 `json:"beta,omitempty"`
	// ShortJobTh is Th of the BSLD formula. nil selects the paper's
	// 600 s; a set value must be positive — an explicit zero is an error.
	ShortJobTh *float64 `json:"short_job_th,omitempty"`

	// KeepCollector retains per-job records in the outcome (needed for
	// wait-time series, Figure 6).
	KeepCollector bool `json:"-"`
	// ExtraRecorders observe every execution alongside the metrics
	// collector. They are shared between executions, so a scenario with
	// extra recorders is not safe for concurrent Execute.
	ExtraRecorders []sched.Recorder `json:"-"`
}

// Outcome is the result of one execution.
type Outcome struct {
	Results   metrics.Results
	Collector *metrics.Collector // nil unless Spec.KeepCollector
	Policy    string
	CPUs      int
	// PeakEvents is the high-water mark of the simulation event heap, a
	// scale diagnostic: O(running jobs), since arrivals are streamed.
	PeakEvents int
	// Controller is the power controller instance this execution ran
	// under (the per-execution clone for cloneable controllers), nil for
	// controller-free runs. Callers downcast it for controller-specific
	// reports, e.g. (*altpolicy.PowerCap).Report().
	Controller sched.PowerController
}

// Scenario is a compiled, immutable run description. All fields are
// resolved and read-only after Compile; Execute never mutates the
// scenario, so one value can back any number of concurrent executions
// (ConcurrentSafe reports the escape-hatch exceptions).
type Scenario struct {
	// Workload. Exactly one of trace, source and factory is set: trace is
	// a shared immutable arena each execution walks through its own
	// cursor, factory mints an independent cursor per execution, source is
	// a single shared cursor the scheduler rewinds (sequential use only).
	name     string
	jobCount int    // workload length when known upfront, else -1
	wdesc    string // canonical workload descriptor the hash covers
	trace    *workload.Trace
	source   workload.JobSource
	factory  func() (workload.JobSource, error)

	cpus int // resolved machine size

	variant      sched.Variant
	selection    cluster.Selection
	order        sched.Order
	reservations int

	gears   dvfs.GearSet
	pm      *dvfs.PowerModel
	beta    float64
	shortTh float64

	// policy is nil for the no-DVFS baseline. policyDesc is the canonical
	// descriptor the hash covers (full core.Params fidelity for the
	// paper's policy — Name() alone omits Boost/Strict/ShortJobTh).
	policy     sched.GearPolicy
	policyDesc string

	// controller is nil for controller-free runs. controllerDesc is the
	// canonical descriptor; empty when no controller is configured, so
	// controller-free hashes are unchanged from the pre-controller era.
	controller     sched.PowerController
	controllerDesc string

	keepCollector  bool
	extraRecorders []sched.Recorder

	hash       string
	concurrent bool
}

// Hash is the canonical content hash of the scenario: two scenarios with
// equal hashes describe result-identical runs. It covers the workload
// identity, the resolved machine size, gears, power model, β, Th, the
// scheduling options and the policy descriptor — and deliberately not
// result-neutral observation knobs (KeepCollector, ExtraRecorders,
// Materialize), which are proven byte-identical by the verification
// spine.
func (s *Scenario) Hash() string { return s.hash }

// Workload is the resolved workload name.
func (s *Scenario) Workload() string { return s.name }

// Jobs is the workload length, or -1 when the source cannot know it
// upfront (an unparsed .swf stream).
func (s *Scenario) Jobs() int { return s.jobCount }

// CPUs is the resolved machine size (after SizeFactor/CPUs).
func (s *Scenario) CPUs() int { return s.cpus }

// PolicyName names the gear policy ("bsld(2,16)", "fixed(2.3GHz)").
func (s *Scenario) PolicyName() string {
	if s.policy == nil {
		return sched.FixedGear{Gear: s.gears.Top()}.Name()
	}
	return s.policy.Name()
}

// Baseline reports whether the scenario runs without DVFS.
func (s *Scenario) Baseline() bool { return s.policy == nil }

// ConcurrentSafe reports whether Execute may be called from multiple
// goroutines at once. It is false only for the escape hatches that
// inject shared mutable state: a Spec.Source cursor, ExtraRecorders
// (shared observers), a stateful Spec.GearPolicy without
// sched.PolicyCloner, or a Spec.GearController without
// sched.ControllerCloner.
func (s *Scenario) ConcurrentSafe() bool { return s.concurrent }

// NewSource hands the caller an independent cursor over the scenario's
// workload. For trace-backed scenarios that is a fresh cursor over the
// shared arena; for factory-backed ones a newly minted stream. For the
// single-cursor escape hatch (Spec.Source) every call returns the same
// shared cursor — see ConcurrentSafe.
func (s *Scenario) NewSource() (workload.JobSource, error) {
	switch {
	case s.trace != nil:
		return s.trace.Source(), nil
	case s.factory != nil:
		return s.factory()
	default:
		return s.source, nil
	}
}

// WithBaseline returns a derived scenario running the no-DVFS baseline on
// the same workload and machine; everything else (including
// KeepCollector) carries over. The power controller is dropped too: the
// baseline is the uncontrolled top-gear reference the paper normalizes
// against, so a capped scenario's pair reports cap cost against the
// uncapped machine. The workload arena/factory is shared, so the pair
// never parses or generates twice.
func (s *Scenario) WithBaseline() *Scenario {
	if s.policy == nil && s.controller == nil {
		return s
	}
	b := *s
	b.policy = nil
	b.policyDesc = baselineDesc
	b.controller = nil
	b.controllerDesc = ""
	b.hash = b.contentHash()
	return &b
}

// executionPolicy resolves the gear policy one execution will use: the
// top-gear fallback for baselines, a per-execution clone for stateful
// policies implementing sched.PolicyCloner, the shared (immutable) policy
// otherwise.
func (s *Scenario) executionPolicy() sched.GearPolicy {
	if s.policy == nil {
		return sched.FixedGear{Gear: s.gears.Top()}
	}
	if c, ok := s.policy.(sched.PolicyCloner); ok {
		return c.ClonePolicy()
	}
	return s.policy
}

// executionController resolves the power controller one execution will
// use: nil for controller-free runs, a per-execution clone for stateful
// controllers implementing sched.ControllerCloner, the shared controller
// otherwise.
func (s *Scenario) executionController() sched.PowerController {
	if s.controller == nil {
		return nil
	}
	if c, ok := s.controller.(sched.ControllerCloner); ok {
		return c.CloneController()
	}
	return s.controller
}

// Execute runs the simulation the scenario describes. It never mutates
// the scenario; on a ConcurrentSafe scenario any number of goroutines may
// call it at once, and determinism makes every call return bit-identical
// Results.
func (s *Scenario) Execute() (Outcome, error) {
	pol := s.executionPolicy()
	ctrl := s.executionController()
	// Without KeepCollector the run only needs the aggregate Results, so
	// the collector streams: no O(trace) record list is held alive.
	col := metrics.NewStreamingCollector(s.pm, s.shortTh)
	if s.keepCollector {
		col = metrics.NewCollector(s.pm, s.shortTh)
	}
	var rec sched.Recorder = col
	if len(s.extraRecorders) > 0 {
		// A fresh slice per execution: the shared extraRecorders backing
		// array must never be appended into.
		rec = append(sched.MultiRecorder{col}, s.extraRecorders...)
	}
	sys, err := sched.New(sched.Config{
		CPUs:         s.cpus,
		Gears:        s.gears,
		TimeModel:    dvfs.NewTimeModel(s.beta, s.gears),
		Policy:       pol,
		Variant:      s.variant,
		Recorder:     rec,
		Controller:   ctrl,
		Selection:    s.selection,
		Order:        s.order,
		Reservations: s.reservations,
	})
	if err != nil {
		return Outcome{}, err
	}
	if s.trace != nil {
		// The arena fast path: Simulate verifies sortedness without
		// mutating the shared trace and replays stable *Job pointers.
		err = sys.Simulate(s.trace)
	} else {
		src := s.source
		if s.factory != nil {
			if src, err = s.factory(); err != nil {
				return Outcome{}, err
			}
		}
		err = sys.SimulateSource(src)
	}
	if err != nil {
		return Outcome{}, err
	}
	start, end := col.Window()
	busy := sys.Cluster().BusyCPUSeconds(end)
	idle := sys.Cluster().IdleCPUSeconds(start, end)
	out := Outcome{
		Results:    col.Summarize(idle, busy, s.cpus),
		Policy:     pol.Name(),
		CPUs:       s.cpus,
		PeakEvents: sys.PeakEvents(),
		Controller: ctrl,
	}
	if s.keepCollector {
		out.Collector = col
	}
	return out, nil
}

// ExecutePair runs the scenario and its no-DVFS baseline on the same
// machine size, returning (policy, baseline). Normalized energies in the
// paper are always relative to such baselines.
func (s *Scenario) ExecutePair() (Outcome, Outcome, error) {
	withPolicy, err := s.Execute()
	if err != nil {
		return Outcome{}, Outcome{}, err
	}
	baseline, err := s.WithBaseline().Execute()
	if err != nil {
		return Outcome{}, Outcome{}, err
	}
	return withPolicy, baseline, nil
}

// positiveOrDefault resolves an optional positive parameter: nil selects
// def, a set value must be a positive finite number — an explicit zero is
// an error, never silently the default.
func positiveOrDefault(v *float64, def float64, field string) (float64, error) {
	if v == nil {
		return def, nil
	}
	if *v <= 0 || math.IsInf(*v, 0) || math.IsNaN(*v) {
		return 0, fmt.Errorf("scenario: %s must be a positive finite number, got %v (omit the field for the default %g)", field, *v, def)
	}
	return *v, nil
}
