package scenario

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/altpolicy"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/sched"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// Compiler compiles specs into scenarios, sharing workload arenas across
// compilations: an SWF log is parsed once, a materialized preset is
// generated once, and a streamed preset pays its RNG summing passes and
// its first rewind's counted attribute replay once — every scenario over
// the same workload then replays the shared immutable result through
// independent cursors. A Compiler is safe for concurrent
// use; the zero value is ready.
type Compiler struct {
	mu     sync.Mutex
	arenas map[arenaKey]*arena
}

// arenaKey identifies one shared workload resolution.
type arenaKey struct {
	name        string
	jobs        int
	swfCPUs     int
	filter      workload.SWFFilter
	materialize bool
}

// arena is one resolved named workload: a materialized trace (SWF logs
// and Materialize presets) or a stream prototype presets clone cursors
// from. The once gate makes concurrent compilations of the same workload
// resolve it exactly once.
type arena struct {
	once  sync.Once
	trace *workload.Trace
	proto *wgen.Source
	eco   workload.EcoSet // stream-preset eco tagging, applied per cloned cursor
	err   error
}

// maxCPUs is the largest machine a spec may describe.
const maxCPUs = math.MaxInt32

// Compile resolves the spec into an immutable scenario using a throwaway
// compiler. Callers compiling many specs over shared workloads (sweeps,
// servers) should hold a Compiler so arenas are reused.
func Compile(spec Spec) (*Scenario, error) {
	var c Compiler
	return c.Compile(spec)
}

// Compile resolves every default, validates the spec, resolves the
// workload through the shared arena cache and returns the compiled
// scenario.
func (c *Compiler) Compile(spec Spec) (*Scenario, error) {
	if err := oneWorkloadInput(spec); err != nil {
		return nil, err
	}

	gears := spec.Gears
	if gears == nil {
		gears = dvfs.PaperGearSet()
	}
	if err := gears.Validate(); err != nil {
		return nil, err
	}
	pm, err := spec.PowerModel.build(gears)
	if err != nil {
		return nil, err
	}
	beta, err := positiveOrDefault(spec.Beta, DefaultBeta, "Beta")
	if err != nil {
		return nil, err
	}
	shortTh, err := positiveOrDefault(spec.ShortJobTh, core.DefaultShortJobThreshold, "ShortJobTh")
	if err != nil {
		return nil, err
	}
	variant, err := sched.ParseVariant(spec.Variant)
	if err != nil {
		return nil, err
	}
	selection, err := cluster.ParseSelection(spec.Selection)
	if err != nil {
		return nil, err
	}
	order, err := sched.ParseOrder(spec.Order)
	if err != nil {
		return nil, err
	}
	if spec.Reservations < 0 {
		return nil, fmt.Errorf("scenario: negative reservation depth %d", spec.Reservations)
	}
	if spec.Jobs < 0 {
		return nil, fmt.Errorf("scenario: negative jobs %d", spec.Jobs)
	}
	if spec.SWFCPUs < 0 {
		return nil, fmt.Errorf("scenario: negative swf_cpus %d", spec.SWFCPUs)
	}

	s := &Scenario{
		variant:        variant,
		selection:      selection,
		order:          order,
		reservations:   spec.Reservations,
		gears:          gears,
		pm:             pm,
		beta:           beta,
		shortTh:        shortTh,
		keepCollector:  spec.KeepCollector,
		extraRecorders: spec.ExtraRecorders,
		concurrent:     true,
	}

	// Gear policy: a pre-built object wins over the data-level config.
	switch {
	case spec.GearPolicy != nil:
		s.policy = spec.GearPolicy
		s.policyDesc = policyDescriptor(spec.GearPolicy)
		if _, ctrl := spec.GearPolicy.(sched.PowerController); ctrl {
			if _, cloner := spec.GearPolicy.(sched.PolicyCloner); !cloner {
				// A system-bound policy without a clone seam would share
				// mutable state across executions.
				s.concurrent = false
			}
		}
	case !spec.Policy.Baseline():
		pol, err := core.NewPolicy(spec.Policy.params(shortTh), gears, dvfs.NewTimeModel(beta, gears))
		if err != nil {
			return nil, err
		}
		s.policy = pol
		s.policyDesc = policyDescriptor(pol)
	default:
		s.policyDesc = baselineDesc
	}

	// Power controller: a pre-built object wins over the data-level
	// config; a zero ControllerConfig compiles no controller at all, so
	// the cap-disabled path is the pre-controller path, hash included.
	switch {
	case spec.GearController != nil:
		s.controller = spec.GearController
		s.controllerDesc = controllerDescriptor(spec.GearController)
		if _, cloner := spec.GearController.(sched.ControllerCloner); !cloner {
			// Controllers are bound to their system; without a clone seam
			// executions would share the bound state.
			s.concurrent = false
		}
	case spec.Controller.Enabled():
		ctrl, err := buildController(spec.Controller, gears, pm)
		if err != nil {
			return nil, err
		}
		s.controller = ctrl
		s.controllerDesc = controllerDescriptor(ctrl)
	}

	baseCPUs, err := c.resolveWorkload(spec, s)
	if err != nil {
		return nil, err
	}
	if spec.Source != nil || len(spec.ExtraRecorders) > 0 {
		s.concurrent = false
	}

	// Machine size: explicit override, else the workload's original system
	// scaled by the size factor. The size is checked as a float, before
	// the conversion to int can wrap.
	size := float64(spec.CPUs)
	if spec.CPUs == 0 {
		f := spec.SizeFactor
		if f == 0 {
			f = 1
		}
		if f <= 0 {
			return nil, fmt.Errorf("scenario: non-positive size factor %v", spec.SizeFactor)
		}
		size = math.Round(float64(baseCPUs) * f)
	}
	if !(size >= 1 && size <= maxCPUs) {
		return nil, fmt.Errorf("scenario: machine size %g CPUs outside [1, %d]", size, maxCPUs)
	}
	s.cpus = int(size)

	s.hash = s.contentHash()
	return s, nil
}

// buildController compiles a data-level controller config. PI gain
// defaults are resolved here, before hashing, so an explicit default
// gain and an omitted one describe the same scenario.
func buildController(cfg ControllerConfig, gears dvfs.GearSet, pm *dvfs.PowerModel) (sched.PowerController, error) {
	switch cfg.Kind {
	case "", "powercap":
		kp, ki := cfg.Kp, cfg.Ki
		if kp == 0 {
			kp = altpolicy.DefaultKp
		}
		if ki == 0 {
			ki = altpolicy.DefaultKi
		}
		return altpolicy.NewPowerCap(gears, pm, cfg.CapFrac, kp, ki, cfg.EcoOnly)
	}
	return nil, fmt.Errorf("scenario: unknown controller kind %q (powercap)", cfg.Kind)
}

// oneWorkloadInput enforces that exactly one of the four workload inputs
// is set, naming every field in both error directions.
func oneWorkloadInput(spec Spec) error {
	var set []string
	if spec.Workload != "" {
		set = append(set, "Workload")
	}
	if spec.Trace != nil {
		set = append(set, "Trace")
	}
	if spec.Source != nil {
		set = append(set, "Source")
	}
	if spec.Factory != nil {
		set = append(set, "Factory")
	}
	switch len(set) {
	case 0:
		return fmt.Errorf("scenario: no workload input: set exactly one of Workload, Trace, Source or Factory")
	case 1:
		return nil
	default:
		return fmt.Errorf("scenario: %s all set; choose one workload input", strings.Join(set, " and "))
	}
}

// resolveWorkload fills the scenario's workload fields (name, length,
// descriptor, and exactly one of trace/source/factory) and returns the
// processor count of the workload's original system.
func (c *Compiler) resolveWorkload(spec Spec, s *Scenario) (int, error) {
	switch {
	case spec.Trace != nil:
		s.adoptTrace(spec.Trace)
		s.wdesc = fmt.Sprintf("trace!%s|len=%d|cpus=%d", spec.Trace.Name, len(spec.Trace.Jobs), spec.Trace.CPUs)
		return spec.Trace.CPUs, nil
	case spec.Source != nil:
		s.source = spec.Source
		s.name = spec.Source.Name()
		s.jobCount = sourceLen(spec.Source)
		s.wdesc = fmt.Sprintf("source!%s|len=%d|cpus=%d", s.name, s.jobCount, spec.Source.CPUs())
		return spec.Source.CPUs(), nil
	case spec.Factory != nil:
		// Probe once for identity; the probe cursor is discarded.
		probe, err := spec.Factory()
		if err != nil {
			return 0, fmt.Errorf("scenario: workload factory: %w", err)
		}
		s.factory = spec.Factory
		s.name = probe.Name()
		s.jobCount = sourceLen(probe)
		s.wdesc = fmt.Sprintf("factory!%s|len=%d|cpus=%d", s.name, s.jobCount, probe.CPUs())
		return probe.CPUs(), nil
	}

	a := c.arena(arenaKey{
		name:        spec.Workload,
		jobs:        spec.Jobs,
		swfCPUs:     spec.SWFCPUs,
		filter:      spec.Filter,
		materialize: spec.Materialize,
	})
	a.once.Do(func() { a.resolve(spec) })
	if a.err != nil {
		return 0, a.err
	}
	baseCPUs := 0
	if a.trace != nil {
		s.adoptTrace(a.trace)
		baseCPUs = a.trace.CPUs
	} else {
		proto, eco := a.proto, a.eco
		s.factory = func() (workload.JobSource, error) { return workload.TagEco(proto.Clone(), eco), nil }
		s.name = proto.Name()
		s.jobCount = proto.Len()
		baseCPUs = proto.CPUs()
	}
	// Named workloads hash canonically: the name plus every knob that
	// changes the generated/parsed content. Materialize is excluded —
	// arena vs cloned cursors is bit-identical.
	s.wdesc = fmt.Sprintf("name!%s|jobs=%d|swfcpus=%d|filter=%+v", spec.Workload, spec.Jobs, spec.SWFCPUs, spec.Filter)
	return baseCPUs, nil
}

// arena returns (creating if needed) the shared arena slot for the key.
func (c *Compiler) arena(k arenaKey) *arena {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.arenas == nil {
		c.arenas = make(map[arenaKey]*arena)
	}
	a := c.arenas[k]
	if a == nil {
		a = &arena{}
		c.arenas[k] = a
	}
	return a
}

// resolve loads the named workload into the arena: SWF logs always parse
// into a trace, presets generate a trace when materializing and a stream
// prototype otherwise. Presets honor the filter's EcoUsers hook exactly
// like the SWF parsers ("*" opts in every job, user IDs match when the
// model assigns a user pool); the filter is part of the arena key, so a
// tagged trace never aliases an untagged one.
func (a *arena) resolve(spec Spec) {
	if strings.HasSuffix(spec.Workload, ".swf") {
		a.trace, a.err = workload.ParseSWFFile(spec.Workload, spec.SWFCPUs, spec.Filter)
		return
	}
	m, err := wgen.Preset(spec.Workload)
	if err != nil {
		a.err = err
		return
	}
	if spec.Jobs > 0 {
		m.Jobs = spec.Jobs
	}
	eco, err := spec.Filter.EcoSet()
	if err != nil {
		a.err = err
		return
	}
	if spec.Materialize {
		a.trace, a.err = wgen.Generate(m)
		if a.err == nil {
			eco.Tag(a.trace.Jobs)
		}
		return
	}
	a.eco = eco
	a.proto, a.err = wgen.Stream(m)
}

// adoptTrace wires a shared trace arena into the scenario.
func (s *Scenario) adoptTrace(tr *workload.Trace) {
	s.trace = tr
	s.name = tr.Name
	s.jobCount = len(tr.Jobs)
}

// sourceLen is the source's job count when it can know it upfront, -1
// otherwise.
func sourceLen(src workload.JobSource) int {
	if c, ok := src.(workload.Counted); ok {
		return c.Len()
	}
	return -1
}
