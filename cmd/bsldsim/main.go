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
	"strings"

	"repro/internal/altpolicy"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/wgen"
	"repro/internal/workload"
)

func main() {
	var (
		wl      = flag.String("workload", "CTC", "built-in workload model (CTC, SDSC, SDSCBlue, LLNLThunder, LLNLAtlas, Million)")
		swf     = flag.String("swf", "", "read this SWF trace instead of a built-in model")
		cpus    = flag.Int("cpus", 0, "system size for -swf traces without a MaxProcs header; 0 = from header")
		jobs    = flag.Int("jobs", 0, "trace segment length for built-in models; 0 = the model's native length (5000 for the paper presets, 1000000 for Million)")
		dropF   = flag.Bool("drop-failed", false, "drop failed jobs (SWF status 0) when reading -swf traces")
		bsldThr = flag.Float64("bsld", 2, "BSLDthreshold of the frequency assignment algorithm")
		wqThr   = flag.Int("wq", 0, "WQthreshold (jobs waiting); -1 = no limit")
		size    = flag.Float64("size", 1.0, "system size factor (1.2 = 20% enlarged)")
		beta    = flag.Float64("beta", scenario.DefaultBeta, "β of the execution time model (must be positive)")
		variant = flag.String("policy", "easy", "base scheduling policy: easy, fcfs, conservative")
		sel     = flag.String("select", "firstfit", "resource selection policy: firstfit, contiguous, nextfit")
		stream  = flag.Bool("stream", false, "stream the workload instead of materializing it: presets generate lazily, SWF files are read incrementally — O(running jobs) memory at any trace length")
		noDVFS  = flag.Bool("nodvfs", false, "disable frequency scaling (baseline)")
		strict  = flag.Bool("strict-backfill", false, "literal Figure 2 semantics: BSLD check gates backfills even at Ftop")
		boost   = flag.Int("boost", -1, "dynamic boost extension: raise running reduced jobs to Ftop when more than N jobs wait; -1 disables")
		capFrac = flag.Float64("cap-frac", 0, "power cap as a fraction of peak machine draw, in (0,1]; 0 disables the cap controller")
		capKp   = flag.Float64("cap-kp", 0, "proportional gain of the cap controller (0 = default)")
		capKi   = flag.Float64("cap-ki", 0, "integral gain of the cap controller (0 = default)")
		capEco  = flag.Bool("cap-eco", false, "cap controller only throttles jobs carrying the eco opt-in flag")
		ecoU    = flag.String("eco-users", "", "comma-separated SWF user IDs whose jobs opt into eco mode (\"*\" = all)")
		verbose = flag.Bool("v", false, "print per-gear breakdown")
		asJSON  = flag.Bool("json", false, "emit the report as JSON for downstream tooling")
		cfgPath = flag.String("config", "", "JSON configuration file declaring platform, policy, machine and workload (overrides the other flags)")
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
	var err error
	if *cfgPath != "" {
		err = runConfig(os.Stdout, *cfgPath, *verbose, *asJSON, *dump)
	} else {
		capCfg := scenario.ControllerConfig{CapFrac: *capFrac, Kp: *capKp, Ki: *capKi, EcoOnly: *capEco}
		err = run(os.Stdout, *wl, *swf, *cpus, *jobs, *bsldThr, *wqThr, *size, *beta, *variant, *sel, *stream, *noDVFS, *strict, *dropF, *boost, capCfg, *ecoU, *verbose, *asJSON, *dump)
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

// runConfig executes a simulation declared in a configuration file.
func runConfig(w io.Writer, path string, verbose, asJSON bool, dump string) error {
	f, err := config.Load(path)
	if err != nil {
		return err
	}
	spec, err := f.BuildSpec()
	if err != nil {
		return err
	}
	spec.KeepCollector = verbose || dump != ""
	// Compile once; the policy and baseline legs share the compiled
	// workload arena.
	sc, err := scenario.Compile(spec)
	if err != nil {
		return err
	}
	out, baseOut, err := sc.ExecutePair()
	if err != nil {
		return err
	}
	sizeFactor := spec.SizeFactor
	if sizeFactor == 0 {
		sizeFactor = 1
	}
	if dump != "" {
		if err := dumpRecords(dump, out); err != nil {
			return err
		}
	}
	return report(w, spec.Trace.Name, sc.Hash(), out, baseOut, spec.Variant, spec.Selection, sizeFactor, verbose, asJSON)
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

func run(w io.Writer, wl, swf string, cpus, jobs int, bsldThr float64, wqThr int, size, beta float64,
	variant, sel string, stream, noDVFS, strict, dropFailed bool, boost int,
	capCfg scenario.ControllerConfig, ecoUsers string, verbose, asJSON bool, dump string) error {
	var (
		tr   *workload.Trace
		src  workload.JobSource
		name string
		err  error
	)
	if stream {
		src, err = loadSource(wl, swf, cpus, jobs, dropFailed, ecoUsers)
		if err != nil {
			return err
		}
		name = src.Name()
	} else {
		tr, err = loadTrace(wl, swf, cpus, jobs, dropFailed, ecoUsers)
		if err != nil {
			return err
		}
		name = tr.Name
	}
	v, err := sched.ParseVariant(strings.ToLower(variant))
	if err != nil {
		return err
	}
	selection, err := cluster.ParseSelection(strings.ToLower(sel))
	if err != nil {
		return err
	}

	spec := scenario.Spec{Trace: tr, Source: src, SizeFactor: size, Variant: v.String(), Beta: &beta,
		Selection: selection.String(), Controller: capCfg, KeepCollector: verbose || dump != ""}
	if !noDVFS {
		gears := dvfs.PaperGearSet()
		wq := wqThr
		if wq < 0 {
			wq = core.NoWQLimit
		}
		pol, err := core.NewPolicy(core.Params{
			BSLDThreshold:      bsldThr,
			WQThreshold:        wq,
			StrictBackfillBSLD: strict,
			Boost:              boost >= 0,
			BoostWQ:            max(boost, 0),
		}, gears, dvfs.NewTimeModel(beta, gears))
		if err != nil {
			return err
		}
		spec.GearPolicy = pol
	}
	// Compile the spec once into an immutable scenario; the baseline leg
	// reuses the compiled workload (a shared source is rewound between the
	// two sequential executions).
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
	return report(w, name, sc.Hash(), out, base, spec.Variant, spec.Selection, size, verbose, asJSON)
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
		fmt.Fprintln(w, "per final gear:")
		for _, g := range dvfs.PaperGearSet() {
			if a := byGear[g]; a != nil {
				fmt.Fprintf(w, "  %-14s %5d jobs  energy %.4g\n", g, a.n, a.energy)
			}
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

// loadSource resolves the workload as a streaming source: presets
// generate jobs lazily, SWF files are read incrementally. Either way a
// simulation holds O(running jobs) memory instead of the whole trace.
// An explicit -swf path is loaded as a file whatever its extension;
// otherwise wgen's shared name resolution applies.
func loadSource(wl, swf string, cpus, jobs int, dropFailed bool, ecoUsers string) (workload.JobSource, error) {
	filter := workload.SWFFilter{DropFailed: dropFailed, EcoUsers: ecoUsers}
	if swf != "" {
		return workload.OpenSWFSource(swf, cpus, filter)
	}
	return wgen.ResolveSource(wl, cpus, jobs, filter)
}

func loadTrace(wl, swf string, cpus, jobs int, dropFailed bool, ecoUsers string) (*workload.Trace, error) {
	filter := workload.SWFFilter{DropFailed: dropFailed, EcoUsers: ecoUsers}
	if swf != "" {
		return workload.ParseSWFFile(swf, cpus, filter)
	}
	return wgen.ResolveTrace(wl, cpus, jobs, filter)
}
