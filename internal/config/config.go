// Package config loads simulation setups from JSON files. The paper notes
// that all power/time model parameters "are platform dependent and
// adjustable in configuration files" (§4); this package is that facility:
// gear sets, power-model constants, β, the policy thresholds, the machine
// and the workload can all be declared in one document and turned into a
// ready scenario.Spec.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// File is the root configuration document. Omitted sections fall back to
// the paper's defaults.
type File struct {
	Platform *Platform `json:"platform,omitempty"`
	Policy   *Policy   `json:"policy,omitempty"`
	Machine  *Machine  `json:"machine,omitempty"`
	Workload *Workload `json:"workload,omitempty"`
}

// Platform carries the power and time model constants of paper §4.
type Platform struct {
	// Gears lists frequency/voltage pairs, lowest frequency first
	// (Table 2 when omitted).
	Gears []Gear `json:"gears,omitempty"`
	// ACRunning, ActivityRatio and StaticFraction parameterize the power
	// model (1.0, 2.5 and 0.25 in the paper).
	ACRunning      float64 `json:"ac_running,omitempty"`
	ActivityRatio  float64 `json:"activity_ratio,omitempty"`
	StaticFraction float64 `json:"static_fraction,omitempty"`
	// Beta is the execution-time dilation sensitivity (0.5 in the paper).
	Beta float64 `json:"beta,omitempty"`
}

// Gear mirrors dvfs.Gear for JSON.
type Gear struct {
	FreqGHz  float64 `json:"freq_ghz"`
	VoltageV float64 `json:"voltage_v"`
}

// Policy configures the frequency assignment algorithm. A nil section
// runs the no-DVFS baseline.
type Policy struct {
	BSLDThreshold float64 `json:"bsld_threshold"`
	// WQThreshold accepts a number or the string "NO" for no limit.
	WQThreshold        WQ      `json:"wq_threshold"`
	ShortJobThreshold  float64 `json:"short_job_threshold,omitempty"`
	StrictBackfillBSLD bool    `json:"strict_backfill_bsld,omitempty"`
	Boost              bool    `json:"boost,omitempty"`
	BoostWQ            int     `json:"boost_wq,omitempty"`
}

// WQ is a wait-queue threshold that unmarshals from a JSON number or the
// string "NO" (case-insensitive), matching the paper's table captions.
type WQ int

// UnmarshalJSON implements json.Unmarshaler.
func (w *WQ) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		if strings.EqualFold(s, "NO") || strings.EqualFold(s, "nolimit") {
			*w = WQ(core.NoWQLimit)
			return nil
		}
		return fmt.Errorf("config: invalid wq_threshold %q (number or \"NO\")", s)
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("config: invalid wq_threshold %s", data)
	}
	if n < 0 {
		*w = WQ(core.NoWQLimit)
	} else {
		*w = WQ(n)
	}
	return nil
}

// MarshalJSON implements json.Marshaler.
func (w WQ) MarshalJSON() ([]byte, error) {
	if int(w) == core.NoWQLimit {
		return []byte(`"NO"`), nil
	}
	return json.Marshal(int(w))
}

// Machine configures the simulated cluster.
type Machine struct {
	// CPUs overrides the machine size (0 keeps the workload's size).
	CPUs int `json:"cpus,omitempty"`
	// SizeFactor scales the workload's original size (Figures 7–9).
	SizeFactor float64 `json:"size_factor,omitempty"`
	// Scheduler is easy (default), fcfs or conservative.
	Scheduler string `json:"scheduler,omitempty"`
	// Selection is firstfit (default), contiguous or nextfit.
	Selection string `json:"selection,omitempty"`
	// Order is fcfs (default) or sjf.
	Order string `json:"order,omitempty"`
	// Reservations is the EASY reservation depth (0/1 classic; larger
	// values protect the first K queued jobs).
	Reservations int `json:"reservations,omitempty"`
}

// Workload selects the trace: a built-in preset or an SWF file.
type Workload struct {
	Preset string `json:"preset,omitempty"`
	SWF    string `json:"swf,omitempty"`
	// CPUs supplies the system size for headerless SWF files.
	CPUs int `json:"cpus,omitempty"`
	// Jobs truncates/extends preset generation (default 5000).
	Jobs int `json:"jobs,omitempty"`
	// Seed overrides the preset's RNG seed when non-zero.
	Seed int64 `json:"seed,omitempty"`
	// CleanFlurries applies the archive-style per-user burst removal.
	CleanFlurries bool `json:"clean_flurries,omitempty"`
}

// Load reads a configuration file from disk.
func Load(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// Parse decodes a configuration document, rejecting unknown fields so
// typos surface instead of silently running defaults.
func Parse(r io.Reader) (*File, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return &f, nil
}

// BuildSpec assembles the scenario.Spec (and the trace inside it) the
// document describes.
func (f *File) BuildSpec() (scenario.Spec, error) {
	spec := scenario.Spec{}

	// Platform.
	gears := dvfs.PaperGearSet()
	pm := dvfs.PaperPowerModel()
	beta := scenario.DefaultBeta
	if p := f.Platform; p != nil {
		if len(p.Gears) > 0 {
			gears = nil
			for _, g := range p.Gears {
				gears = append(gears, dvfs.Gear{Freq: g.FreqGHz, Voltage: g.VoltageV})
			}
		}
		ac := p.ACRunning
		if ac == 0 {
			ac = 1.0
		}
		ar := p.ActivityRatio
		if ar == 0 {
			ar = 2.5
		}
		sf := p.StaticFraction
		if sf == 0 {
			sf = 0.25
		}
		var err error
		pm, err = dvfs.NewPowerModel(gears, ac, ar, sf)
		if err != nil {
			return spec, err
		}
		if p.Beta != 0 {
			beta = p.Beta
			spec.Beta = &beta
		}
	}
	spec.Gears = gears
	spec.PowerModel = pm

	// Workload.
	wl := f.Workload
	if wl == nil {
		wl = &Workload{Preset: "CTC"}
	}
	var tr *workload.Trace
	switch {
	case wl.SWF != "":
		file, err := os.Open(wl.SWF)
		if err != nil {
			return spec, err
		}
		defer file.Close()
		tr, err = workload.ParseSWF(file, wl.SWF, wl.CPUs)
		if err != nil {
			return spec, err
		}
	case wl.Preset != "":
		model, err := wgen.Preset(wl.Preset)
		if err != nil {
			return spec, err
		}
		if wl.Jobs > 0 {
			model.Jobs = wl.Jobs
		}
		if wl.Seed != 0 {
			model.Seed = wl.Seed
		}
		tr, err = wgen.Generate(model)
		if err != nil {
			return spec, err
		}
	default:
		return spec, fmt.Errorf("config: workload needs a preset or an swf path")
	}
	if wl.CleanFlurries {
		tr, _ = workload.RemoveFlurries(tr, workload.DefaultCleanConfig())
	}
	spec.Trace = tr

	// Machine.
	m := f.Machine
	if m == nil {
		m = &Machine{}
	}
	spec.CPUs = m.CPUs
	spec.SizeFactor = m.SizeFactor
	variant, err := sched.ParseVariant(strings.ToLower(m.Scheduler))
	if err != nil {
		return spec, err
	}
	spec.Variant = variant.String()
	sel, err := cluster.ParseSelection(strings.ToLower(m.Selection))
	if err != nil {
		return spec, err
	}
	spec.Selection = sel.String()
	order, err := sched.ParseOrder(strings.ToLower(m.Order))
	if err != nil {
		return spec, err
	}
	spec.Order = order.String()
	if m.Reservations < 0 {
		return spec, fmt.Errorf("config: negative reservations %d", m.Reservations)
	}
	spec.Reservations = m.Reservations

	// Policy.
	if p := f.Policy; p != nil {
		pol, err := core.NewPolicy(core.Params{
			BSLDThreshold:      p.BSLDThreshold,
			WQThreshold:        int(p.WQThreshold),
			ShortJobThreshold:  p.ShortJobThreshold,
			StrictBackfillBSLD: p.StrictBackfillBSLD,
			Boost:              p.Boost,
			BoostWQ:            p.BoostWQ,
		}, gears, dvfs.NewTimeModel(beta, gears))
		if err != nil {
			return spec, err
		}
		spec.GearPolicy = pol
		if p.ShortJobThreshold != 0 {
			th := p.ShortJobThreshold
			spec.ShortJobTh = &th
		}
	}
	return spec, nil
}
