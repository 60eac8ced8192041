// Command bsldsim runs one power-aware job scheduling simulation and
// prints the scheduling and energy metrics.
//
// The workload is either one of the built-in synthetic models calibrated
// to the paper's traces (-workload CTC|SDSC|SDSCBlue|LLNLThunder|LLNLAtlas)
// or a Standard Workload Format file (-swf trace.swf).
//
// Examples:
//
//	bsldsim -workload SDSCBlue -bsld 2 -wq 16
//	bsldsim -workload CTC -bsld 3 -wq -1 -size 1.2
//	bsldsim -swf mytrace.swf -cpus 512 -bsld 2 -wq 0
//	bsldsim -workload CTC -nodvfs            # EASY baseline
//	bsldsim -workload TenMillion -stream     # 10M jobs, O(running jobs) memory
//	bsldsim -workload CTC -cap-frac 0.7      # closed-loop power capping at 70% of peak
//	bsldsim -config run.json                 # a scenario.Spec document
//
// The paper's power and time model parameters "are platform dependent and
// adjustable in configuration files" (§4). -config reads such a file: the
// JSON form of scenario.Spec, the same document cmd/schedd accepts, with
// unknown fields rejected (cmd/bsldsim/testdata/full.json sets every
// platform field). Flags and files compile a named workload the same way,
// so the same run reports the same scenario_hash either way. The keys of
// the earlier sectioned config format map onto Spec as follows:
//
//	platform.gears [{freq_ghz, voltage_v}] → gears [{"Freq", "Voltage"}]
//	platform.ac_running                    → power_model.ac_running
//	platform.activity_ratio                → power_model.activity_ratio
//	platform.static_fraction               → power_model.static_fraction
//	platform.beta                          → beta
//	policy.bsld_threshold                  → policy.bsld_thr
//	policy.wq_threshold (number or "NO")   → policy.wq_thr (number or "NO")
//	policy.short_job_threshold             → short_job_th (policy and metrics)
//	policy.strict_backfill_bsld            → policy.strict_backfill
//	policy.boost                           → policy.boost
//	policy.boost_wq                        → policy.boost_wq
//	machine.cpus                           → cpus
//	machine.size_factor                    → size_factor
//	machine.scheduler                      → variant
//	machine.selection                      → selection
//	machine.order                          → order
//	machine.reservations                   → reservations
//	workload.preset                        → workload
//	workload.swf                           → workload (a path ending in .swf)
//	workload.cpus                          → swf_cpus
//	workload.jobs                          → jobs
//	workload.seed                          → dropped: export the reseeded
//	                                         preset (wgen -seed N) and run
//	                                         the .swf file
//	workload.clean_flurries                → dropped: the presets have no
//	                                         flurries, and the archive
//	                                         publishes cleaned logs
//
// A negative wq_threshold no longer means "NO"; it is an error.
//
// For performance work, -cpuprofile and -memprofile write pprof profiles
// covering the whole run (both the policy and the no-DVFS baseline leg):
//
//	bsldsim -workload Million -policy conservative -cpuprofile cpu.out
//	go tool pprof -top cpu.out
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/altpolicy"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/workload"
)

// options are the run flags.
type options struct {
	workload, swf          string
	cpus, jobs             int
	dropFailed             bool
	bsld                   float64
	wq                     int
	size, beta             float64
	variant, sel           string
	stream, noDVFS, strict bool
	boost                  int
	capCfg                 scenario.ControllerConfig
	ecoUsers               string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "CTC", "built-in workload model (CTC, SDSC, SDSCBlue, LLNLThunder, LLNLAtlas, Million)")
	flag.StringVar(&o.swf, "swf", "", "read this SWF trace instead of a built-in model")
	flag.IntVar(&o.cpus, "cpus", 0, "system size for -swf traces without a MaxProcs header; 0 = from header")
	flag.IntVar(&o.jobs, "jobs", 0, "trace segment length for built-in models; 0 = the model's native length (5000 for the paper presets, 1000000 for Million)")
	flag.BoolVar(&o.dropFailed, "drop-failed", false, "drop failed jobs (SWF status 0) when reading -swf traces")
	flag.Float64Var(&o.bsld, "bsld", 2, "BSLDthreshold of the frequency assignment algorithm")
	flag.IntVar(&o.wq, "wq", 0, "WQthreshold (jobs waiting); -1 = no limit")
	flag.Float64Var(&o.size, "size", 1.0, "system size factor (1.2 = 20% enlarged)")
	flag.Float64Var(&o.beta, "beta", scenario.DefaultBeta, "β of the execution time model (must be positive)")
	flag.StringVar(&o.variant, "policy", "easy", "base scheduling policy: easy, fcfs, conservative")
	flag.StringVar(&o.sel, "select", "firstfit", "resource selection policy: firstfit, contiguous, nextfit")
	flag.BoolVar(&o.stream, "stream", false, "stream the workload instead of materializing it: presets generate lazily, SWF files are read incrementally — O(running jobs) memory at any trace length")
	flag.BoolVar(&o.noDVFS, "nodvfs", false, "disable frequency scaling (baseline)")
	flag.BoolVar(&o.strict, "strict-backfill", false, "literal Figure 2 semantics: BSLD check gates backfills even at Ftop")
	flag.IntVar(&o.boost, "boost", -1, "dynamic boost extension: raise running reduced jobs to Ftop when more than N jobs wait; -1 disables")
	flag.Float64Var(&o.capCfg.CapFrac, "cap-frac", 0, "power cap as a fraction of peak machine draw, in (0,1]; 0 disables the cap controller")
	flag.Float64Var(&o.capCfg.Kp, "cap-kp", 0, "proportional gain of the cap controller (0 = default)")
	flag.Float64Var(&o.capCfg.Ki, "cap-ki", 0, "integral gain of the cap controller (0 = default)")
	flag.BoolVar(&o.capCfg.EcoOnly, "cap-eco", false, "cap controller only throttles jobs carrying the eco opt-in flag")
	flag.StringVar(&o.ecoUsers, "eco-users", "", "comma-separated SWF user IDs whose jobs opt into eco mode (\"*\" = all)")
	var (
		verbose = flag.Bool("v", false, "print per-gear breakdown")
		asJSON  = flag.Bool("json", false, "emit the report as JSON for downstream tooling")
		cfgPath = flag.String("config", "", "JSON scenario.Spec file (the document cmd/schedd accepts) describing the whole run; replaces the run flags above")
		dump    = flag.String("dump", "", "write per-job records (submit, wait, gear, BSLD, energy) to this CSV file")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bsldsim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bsldsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	var spec scenario.Spec
	var err error
	if *cfgPath != "" {
		spec, err = loadSpec(*cfgPath)
	} else {
		spec, err = o.spec()
	}
	if err == nil {
		err = run(os.Stdout, spec, *verbose, *asJSON, *dump)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsldsim:", err)
		os.Exit(1)
	}
	if *memProf != "" {
		runtime.GC() // settle the heap so the profile shows retained memory
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bsldsim:", err)
			os.Exit(1)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bsldsim:", err)
			os.Exit(1)
		}
		f.Close()
	}
}

// spec describes the run the flags ask for. Presets and .swf logs compile
// by name, like a -config file; an SWF log streamed from disk (-stream)
// or named without the .swf suffix is opened here and passed in as a
// pre-built source or trace.
func (o options) spec() (scenario.Spec, error) {
	spec := scenario.Spec{
		Workload:    o.workload,
		Jobs:        o.jobs,
		Filter:      workload.SWFFilter{EcoUsers: o.ecoUsers},
		Materialize: !o.stream,
		Controller:  o.capCfg,
		SizeFactor:  o.size,
		Variant:     strings.ToLower(o.variant),
		Selection:   strings.ToLower(o.sel),
		Beta:        &o.beta,
	}
	if !o.noDVFS {
		wq := o.wq
		if wq < 0 {
			wq = core.NoWQLimit
		}
		spec.Policy = scenario.PolicyConfig{
			BSLDThr: o.bsld, WQThr: wq, StrictBackfill: o.strict,
			Boost: o.boost >= 0, BoostWQ: max(o.boost, 0),
		}
	}
	log := o.swf
	if log == "" && strings.HasSuffix(o.workload, ".swf") {
		log = o.workload
	}
	if log == "" {
		return spec, nil
	}
	spec.Workload, spec.Jobs = "", 0
	spec.Filter.DropFailed = o.dropFailed
	var err error
	switch {
	case o.stream:
		spec.Source, err = workload.OpenSWFSource(log, o.cpus, spec.Filter)
	case strings.HasSuffix(log, ".swf"):
		spec.Workload, spec.SWFCPUs = log, o.cpus
	default:
		spec.Trace, err = workload.ParseSWFFile(log, o.cpus, spec.Filter)
	}
	return spec, err
}

// loadSpec decodes a -config file, rejecting unknown fields so a typo
// fails instead of silently running a default.
func loadSpec(path string) (scenario.Spec, error) {
	var spec scenario.Spec
	f, err := os.Open(path)
	if err != nil {
		return spec, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// run compiles the spec once and executes it and its no-DVFS baseline;
// the baseline leg reuses the compiled workload (a shared source is
// rewound between the two sequential executions).
func run(w io.Writer, spec scenario.Spec, verbose, asJSON bool, dump string) error {
	spec.KeepCollector = verbose || dump != ""
	sc, err := scenario.Compile(spec)
	if err != nil {
		return err
	}
	out, base, err := sc.ExecutePair()
	if err != nil {
		return err
	}
	if dump != "" {
		if err := dumpRecords(dump, out); err != nil {
			return err
		}
	}
	variant, err := sched.ParseVariant(spec.Variant)
	if err != nil {
		return err
	}
	selection, err := cluster.ParseSelection(spec.Selection)
	if err != nil {
		return err
	}
	size := spec.SizeFactor
	if size == 0 {
		size = 1
	}
	return report(w, sc.Workload(), sc.Hash(), out, base, variant.String(), selection.String(), size, verbose, asJSON)
}

// dumpRecords writes the per-job outcomes for offline analysis.
func dumpRecords(path string, out scenario.Outcome) error {
	if out.Collector == nil {
		return fmt.Errorf("internal: records not collected")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "job,user,submit_s,start_s,wait_s,procs,runtime_s,reqtime_s,gear_ghz,reduced,penalized_runtime_s,bsld,energy,alloc_runs")
	for _, rec := range out.Collector.Records() {
		j := rec.Job
		fmt.Fprintf(w, "%d,%d,%.3f,%.3f,%.3f,%d,%.3f,%.3f,%.1f,%t,%.3f,%.6f,%.6g,%d\n",
			j.ID, j.User, j.Submit, rec.Start, rec.Wait, j.Procs, j.Runtime, j.ReqTime,
			rec.FinalGear.Freq, rec.Reduced, rec.PenalizedRuntime, rec.BSLD, rec.Energy, rec.AllocRuns)
	}
	return w.Flush()
}

// jsonReport is the machine-readable form of one simulation outcome.
type jsonReport struct {
	Workload       string    `json:"workload"`
	ScenarioHash   string    `json:"scenario_hash"`
	Jobs           int       `json:"jobs"`
	CPUs           int       `json:"cpus"`
	SizeFactor     float64   `json:"size_factor"`
	Policy         string    `json:"policy"`
	Variant        string    `json:"variant"`
	AvgBSLD        float64   `json:"avg_bsld"`
	AvgWaitSec     float64   `json:"avg_wait_sec"`
	MaxWaitSec     float64   `json:"max_wait_sec"`
	ReducedJobs    int       `json:"reduced_jobs"`
	Utilization    float64   `json:"utilization"`
	WindowSec      float64   `json:"window_sec"`
	CompEnergy     float64   `json:"comp_energy"`
	TotalEnergyLow float64   `json:"total_energy_idle_low"`
	NormComp       float64   `json:"normalized_comp_energy"`
	NormTotalLow   float64   `json:"normalized_total_energy"`
	PowerCap       *capStats `json:"power_cap,omitempty"`
}

// capStats is the JSON form of the power-cap controller's report.
type capStats struct {
	Cap        float64 `json:"cap"`
	AvgDraw    float64 `json:"avg_draw"`
	PeakDraw   float64 `json:"peak_draw"`
	OverFrac   float64 `json:"over_cap_time_frac"`
	OverEnergy float64 `json:"over_cap_energy"`
	Actuations int     `json:"actuations"`
	Passes     int     `json:"control_passes"`
}

// capReport extracts the controller statistics when the outcome carries a
// power-cap controller (nil otherwise).
func capReport(out scenario.Outcome) *capStats {
	pc, ok := out.Controller.(*altpolicy.PowerCap)
	if !ok {
		return nil
	}
	rep := pc.Report()
	return &capStats{
		Cap: rep.Cap, AvgDraw: rep.AvgDraw, PeakDraw: rep.PeakDraw,
		OverFrac: rep.OverFrac, OverEnergy: rep.OverEnergy,
		Actuations: rep.Actuations, Passes: rep.Passes,
	}
}

// report renders the outcome in either human or JSON form.
func report(w io.Writer, name, hash string, out, base scenario.Outcome, variant,
	selection string, size float64, verbose, asJSON bool) error {
	r := out.Results
	if asJSON {
		rep := jsonReport{
			Workload: name, ScenarioHash: hash,
			Jobs: r.Jobs, CPUs: out.CPUs, SizeFactor: size,
			Policy: out.Policy, Variant: variant,
			AvgBSLD: r.AvgBSLD, AvgWaitSec: r.AvgWait, MaxWaitSec: r.MaxWait,
			ReducedJobs: r.ReducedJobs, Utilization: r.Utilization, WindowSec: r.Window,
			CompEnergy: r.CompEnergy, TotalEnergyLow: r.TotalEnergyLow,
			NormComp:     r.CompEnergy / base.Results.CompEnergy,
			NormTotalLow: r.TotalEnergyLow / base.Results.TotalEnergyLow,
			PowerCap:     capReport(out),
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(w, "workload      %s (%d jobs, %d CPUs, size ×%.2f)\n", name, r.Jobs, out.CPUs, size)
	fmt.Fprintf(w, "policy        %s over %s\n", out.Policy, variant)
	fmt.Fprintf(w, "avg BSLD      %.2f\n", r.AvgBSLD)
	fmt.Fprintf(w, "avg wait      %.0f s   (max %.0f s)\n", r.AvgWait, r.MaxWait)
	fmt.Fprintf(w, "reduced jobs  %d / %d\n", r.ReducedJobs, r.Jobs)
	fmt.Fprintf(w, "utilization   %.3f over %.0f s window\n", r.Utilization, r.Window)
	fmt.Fprintf(w, "placement     %s selection, %.2f mean contiguous runs per job\n", selection, r.MeanAllocRuns)
	fmt.Fprintf(w, "energy        computational %.4g   total(idle=low) %.4g\n", r.CompEnergy, r.TotalEnergyLow)
	fmt.Fprintf(w, "normalized    computational %.2f%%   total(idle=low) %.2f%%   (vs no-DVFS baseline)\n",
		100*r.CompEnergy/base.Results.CompEnergy, 100*r.TotalEnergyLow/base.Results.TotalEnergyLow)
	if cs := capReport(out); cs != nil {
		fmt.Fprintf(w, "power cap     %.4g   avg draw %.4g (%.1f%% of cap)   peak %.4g\n",
			cs.Cap, cs.AvgDraw, 100*cs.AvgDraw/cs.Cap, cs.PeakDraw)
		fmt.Fprintf(w, "cap tracking  over cap %.2f%% of time   over-cap energy %.4g   %d regears over %d passes\n",
			100*cs.OverFrac, cs.OverEnergy, cs.Actuations, cs.Passes)
	}

	if verbose && out.Collector != nil {
		type agg struct {
			n      int
			energy float64
		}
		byGear := map[dvfs.Gear]*agg{}
		for _, rec := range out.Collector.Records() {
			a := byGear[rec.FinalGear]
			if a == nil {
				a = &agg{}
				byGear[rec.FinalGear] = a
			}
			a.n++
			a.energy += rec.Energy
		}
		gears := make([]dvfs.Gear, 0, len(byGear))
		for g := range byGear {
			gears = append(gears, g)
		}
		sort.Slice(gears, func(i, k int) bool { return gears[i].Freq < gears[k].Freq })
		fmt.Fprintln(w, "per final gear:")
		for _, g := range gears {
			a := byGear[g]
			fmt.Fprintf(w, "  %-14s %5d jobs  energy %.4g\n", g, a.n, a.energy)
		}
		wp, err := out.Collector.WaitPercentiles()
		if err != nil {
			return err
		}
		bp, err := out.Collector.BSLDPercentiles()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wait percentiles (s): p50 %.0f  p90 %.0f  p95 %.0f  p99 %.0f  max %.0f\n",
			wp.P50, wp.P90, wp.P95, wp.P99, wp.Max)
		fmt.Fprintf(w, "BSLD percentiles:     p50 %.2f  p90 %.2f  p95 %.2f  p99 %.2f  max %.2f\n",
			bp.P50, bp.P90, bp.P95, bp.P99, bp.Max)
		fmt.Fprintf(w, "energy-delay product: %.4g\n", r.EnergyDelayProduct())
		fmt.Fprintln(w, "per job class:")
		bd, err := out.Collector.Breakdown(out.CPUs)
		if err != nil {
			return err
		}
		for _, cl := range metrics.Classes() {
			st, ok := bd[cl]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-12s %5d jobs  BSLD %6.2f  wait %7.0f s  energy share %5.1f%%  reduced %d\n",
				cl, st.Jobs, st.AvgBSLD, st.AvgWait, 100*st.EnergyShare, st.Reduced)
		}
	}
	return nil
}
