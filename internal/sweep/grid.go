// Package sweep turns the paper's parameter studies into a first-class
// subsystem: a declarative Grid of simulation axes (traces, BSLD
// thresholds, size factors, machine sizes, scheduling variants, selections,
// queue orders, reservation depths) that expands to a deterministic ordered
// list of runs, and a Pool that executes those runs across CPU cores while
// keeping the output byte-identical to a serial sweep.
//
// Determinism contract: Grid.Points always enumerates the cross product in
// the same nested axis order (trace outermost, cap fractions innermost), and
// Pool.Execute writes each result into the slot of its input index, so the
// result slice never depends on worker count or scheduling interleavings —
// only per-run wall-clock does.
package sweep

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/workload"
)

// PolicyConfig selects the gear policy of one grid cell. It is the
// scenario layer's policy configuration — grid JSON, legacy sweeps and
// what-if requests all share one shape. The zero value is the no-DVFS
// baseline (top gear for every job).
type PolicyConfig = scenario.PolicyConfig

// Grid declares one sweep as a cross product of axes. Empty axes collapse
// to a single default value (noted per field), so a Grid with only Traces
// set sweeps the plain no-DVFS baseline over those traces.
type Grid struct {
	// Traces names workload presets (wgen.Preset) or .swf files.
	Traces []string `json:"traces"`
	// Policies are the gear policies; empty → the no-DVFS baseline only.
	Policies []PolicyConfig `json:"policies,omitempty"`
	// SizeFactors scale the machine (empty → 1.0, the original size).
	SizeFactors []float64 `json:"size_factors,omitempty"`
	// CPUs overrides the machine size outright; 0 keeps the size-factor
	// path (empty → 0).
	CPUs []int `json:"cpus,omitempty"`
	// Variants are base scheduling policies by name (empty → easy).
	Variants []string `json:"variants,omitempty"`
	// Selections are resource selection policies by name (empty → firstfit).
	Selections []string `json:"selections,omitempty"`
	// Orders are queue disciplines by name (empty → fcfs).
	Orders []string `json:"orders,omitempty"`
	// Reservations are EASY reservation depths (empty → 0, classic).
	Reservations []int `json:"reservations,omitempty"`
	// CapFracs are power-cap levels as fractions of the machine's peak
	// draw, each compiled into a closed-loop PowerCap controller; 0 runs
	// without a controller (empty → 0, uncapped).
	CapFracs []float64 `json:"cap_fracs,omitempty"`
}

// Point is one expanded grid cell: pure data, compiled by Resolver.Scenario.
type Point struct {
	// Index is the cell's position in grid order; Pool results keep it.
	Index int `json:"index"`

	Trace        string       `json:"trace"`
	Policy       PolicyConfig `json:"policy"`
	SizeFactor   float64      `json:"size_factor"`
	CPUs         int          `json:"cpus,omitempty"`
	Variant      string       `json:"variant"`
	Selection    string       `json:"selection"`
	Order        string       `json:"order"`
	Reservations int          `json:"reservations"`
	CapFrac      float64      `json:"cap_frac,omitempty"`
}

// Label is a human-readable cell caption for progress lines and CSV rows.
func (p Point) Label() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s", p.Trace, p.Policy.Label())
	if p.CPUs != 0 {
		fmt.Fprintf(&b, "/cpus=%d", p.CPUs)
	} else if p.SizeFactor != 1 {
		fmt.Fprintf(&b, "/sf=%g", p.SizeFactor)
	}
	if p.Variant != "easy" {
		b.WriteString("/" + p.Variant)
	}
	if p.Selection != "firstfit" {
		b.WriteString("/" + p.Selection)
	}
	if p.Order != "fcfs" {
		b.WriteString("/" + p.Order)
	}
	if p.Reservations != 0 {
		fmt.Fprintf(&b, "/res=%d", p.Reservations)
	}
	if p.CapFrac > 0 {
		fmt.Fprintf(&b, "/cap=%g", p.CapFrac)
	}
	return b.String()
}

// withDefaults returns the grid with every empty axis collapsed to its
// single default value. Validation and expansion share it so they agree.
func (g Grid) withDefaults() Grid {
	if len(g.Policies) == 0 {
		g.Policies = []PolicyConfig{{}}
	}
	if len(g.SizeFactors) == 0 {
		g.SizeFactors = []float64{1}
	}
	if len(g.CPUs) == 0 {
		g.CPUs = []int{0}
	}
	if len(g.Variants) == 0 {
		g.Variants = []string{"easy"}
	}
	if len(g.Selections) == 0 {
		g.Selections = []string{"firstfit"}
	}
	if len(g.Orders) == 0 {
		g.Orders = []string{"fcfs"}
	}
	if len(g.Reservations) == 0 {
		g.Reservations = []int{0}
	}
	if len(g.CapFracs) == 0 {
		g.CapFracs = []float64{0}
	}
	return g
}

// Validate reports the first problem with any axis value.
func (g Grid) Validate() error {
	if len(g.Traces) == 0 {
		return fmt.Errorf("sweep: grid has no traces")
	}
	for _, tr := range g.Traces {
		if tr == "" {
			return fmt.Errorf("sweep: empty trace name")
		}
	}
	d := g.withDefaults()
	for _, p := range d.Policies {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("sweep: policy %s: %w", p.Label(), err)
		}
	}
	for _, sf := range d.SizeFactors {
		if !(sf > 0) || math.IsInf(sf, 1) { // rejects NaN, 0, negatives, +Inf
			return fmt.Errorf("sweep: size factor %v is not a positive finite number", sf)
		}
	}
	for _, c := range d.CPUs {
		if c < 0 {
			return fmt.Errorf("sweep: negative CPUs override %d", c)
		}
	}
	// A CPUs override makes the scenario ignore the size factor, so crossing
	// the two axes would run duplicate cells whose size_factor column lies.
	for _, c := range d.CPUs {
		if c == 0 {
			continue
		}
		for _, sf := range d.SizeFactors {
			if sf != 1 {
				return fmt.Errorf("sweep: CPUs override %d cannot be combined with size factor %v (the override wins and the factor would be ignored)", c, sf)
			}
		}
	}
	for _, v := range d.Variants {
		if _, err := sched.ParseVariant(v); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, s := range d.Selections {
		if _, err := cluster.ParseSelection(s); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, o := range d.Orders {
		if _, err := sched.ParseOrder(o); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, r := range d.Reservations {
		if r < 0 {
			return fmt.Errorf("sweep: negative reservation depth %d", r)
		}
	}
	for _, c := range d.CapFracs {
		if c < 0 || c > 1 || math.IsNaN(c) {
			return fmt.Errorf("sweep: cap fraction %v out of [0, 1] (0 = uncapped)", c)
		}
	}
	return nil
}

// Size is the number of cells the grid expands to.
func (g Grid) Size() int {
	d := g.withDefaults()
	return len(d.Traces) * len(d.Policies) * len(d.SizeFactors) * len(d.CPUs) *
		len(d.Variants) * len(d.Selections) * len(d.Orders) * len(d.Reservations) *
		len(d.CapFracs)
}

// Points expands the grid in its canonical order: traces outermost, then
// policies, size factors, CPU overrides, variants, selections, orders,
// reservation depths and cap fractions innermost. The order is part of the determinism
// contract — callers may rely on result index i meaning the same cell on
// every run.
func (g Grid) Points() []Point {
	d := g.withDefaults()
	pts := make([]Point, 0, g.Size())
	for _, tr := range d.Traces {
		for _, pol := range d.Policies {
			for _, sf := range d.SizeFactors {
				for _, cpus := range d.CPUs {
					for _, v := range d.Variants {
						for _, sel := range d.Selections {
							for _, ord := range d.Orders {
								for _, res := range d.Reservations {
									for _, capf := range d.CapFracs {
										pts = append(pts, Point{
											Index:        len(pts),
											Trace:        tr,
											Policy:       pol,
											SizeFactor:   sf,
											CPUs:         cpus,
											Variant:      v,
											Selection:    sel,
											Order:        ord,
											Reservations: res,
											CapFrac:      capf,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return pts
}

// Resolver compiles Points into scenarios: it owns workload loading for
// every cell of a sweep. With neither a Trace nor a Source loader set,
// Scenario resolves workload names through the scenario layer's shared
// arena cache — SWF logs parse once, presets generate or stream once.
type Resolver struct {
	// Trace loads a workload by name. Optional: without it (and without
	// Source) the Scenario method resolves names through the scenario
	// compiler instead.
	Trace func(name string) (*workload.Trace, error)
	// Source, when set, takes precedence over Trace and loads the
	// workload as a streaming source instead. It is invoked once per grid
	// cell and must return an INDEPENDENT source each call: concurrent
	// pool workers each own their cell's cursor, so runs never share
	// mutable workload state (where Trace-based sweeps hand every worker
	// the same materialized slice). With a generating source
	// (wgen.Stream) workers regenerate on the fly and a sweep's memory
	// stays O(workers · running jobs) instead of O(trace).
	Source func(name string) (workload.JobSource, error)

	// Jobs and Materialize parameterize name-based workload resolution
	// (loader-less Scenario calls only): they are the scenario.Spec
	// fields of the same names.
	Jobs        int
	Materialize bool

	// comp is the shared scenario compiler: every cell of the sweep
	// resolves workloads through one arena cache.
	comp scenario.Compiler
}

// Scenario compiles one grid point into an immutable scenario through
// the resolver's shared compiler. A custom Trace loader feeds the
// compiled scenario a shared arena; a custom Source loader becomes the
// scenario's per-execution factory; with neither, the workload name
// resolves through the compiler's own arena cache (parameterized by the
// resolver's Jobs and Materialize), so every cell over the same workload
// shares one parse/generation.
func (r *Resolver) Scenario(p Point) (*scenario.Scenario, error) {
	ss := scenario.Spec{
		Policy:       p.Policy,
		SizeFactor:   p.SizeFactor,
		CPUs:         p.CPUs,
		Variant:      p.Variant,
		Selection:    p.Selection,
		Order:        p.Order,
		Reservations: p.Reservations,
	}
	if p.CapFrac > 0 {
		ss.Controller = scenario.ControllerConfig{CapFrac: p.CapFrac}
	}
	switch {
	case r.Source != nil:
		load, name := r.Source, p.Trace
		ss.Factory = func() (workload.JobSource, error) { return load(name) }
	case r.Trace != nil:
		tr, err := r.Trace(p.Trace)
		if err != nil {
			return nil, fmt.Errorf("sweep: trace %q: %w", p.Trace, err)
		}
		ss.Trace = tr
	default:
		ss.Workload = p.Trace
		ss.Jobs = r.Jobs
		ss.Materialize = r.Materialize
	}
	sc, err := r.comp.Compile(ss)
	if err != nil {
		return nil, fmt.Errorf("sweep: point %s: %w", p.Label(), err)
	}
	return sc, nil
}
