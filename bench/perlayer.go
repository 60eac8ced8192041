package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
)

// layerReport turns a traced run's measurements into the per-layer
// metrics. Counts are per round — one execution of every simulation the
// workload runs — so they are the same on every host for a workload and
// seed; times are means per call or shares of the traced execution time.
// The CPU shares and the Go runtime figures come from the untraced rounds.
type layerReport struct {
	agg         *layerStats
	rounds      int
	compiles    *compileStats
	cluster     clusterReplay
	shares      map[string]float64 // flat CPU share per package
	profile     string             // CPU profile file
	gcFrac      float64
	allocPerJob float64
	overhead    float64

	// whatif-miss only.
	serverFrac, lateFrac float64
}

// finish writes the trace file and names both artifacts on w.
func (l *layerReport) finish(o options, tr *tracer, w io.Writer) error {
	path := tracePath(o, ".json")
	if err := tr.write(path, l.agg); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "trace %s\nprofile %s\n", path, l.profile)
	return err
}

func (l *layerReport) add(rep *report) {
	a := l.agg
	perRound := func(n int64) float64 { return float64(n) / float64(l.rounds) }
	mean := func(total, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}
	next := a.seams[seamNext]
	reserve, backfill := a.seams[seamReserve], a.seams[seamBackfill]
	rep.add("workload.next_calls", "count", perRound(next.Count), nil)
	rep.add("workload.next_ns", "ns", mean(next.Total, next.Count), nil)
	rep.add("scenario.compiles", "count", float64(l.compiles.n), nil)
	rep.add("scenario.compile_ms", "ms", mean(l.compiles.ns, int64(l.compiles.n))/1e6, nil)
	rep.add("core.reserve_calls", "count", perRound(reserve.Count), nil)
	rep.add("core.backfill_calls", "count", perRound(backfill.Count), nil)
	rep.add("core.feasible_calls", "count", perRound(a.feasibleCalls), nil)
	rep.add("core.backfill_ok_frac", "fraction", mean(a.backfillOK, backfill.Count), nil)
	rep.add("core.call_ns", "ns", mean(reserve.Total+backfill.Total, reserve.Count+backfill.Count), nil)
	rep.add("sched.passes", "count", perRound(a.passes), nil)
	rep.add("sched.blocked_passes", "count", perRound(a.blocked), nil)
	rep.add("sched.queue_mean", "jobs", mean(a.queued, a.passes), nil)
	rep.add("sched.starts", "count", perRound(a.starts), nil)
	rep.add("sched.regears", "count", perRound(a.regears), nil)
	rep.add("sched.peak_events", "count", float64(a.peakEvents), nil)
	rep.add("sched.self_ns_per_job", "ns", mean(a.selfNS, a.execJobs), nil)
	rep.add("cluster.alloc_ns", "ns", mean(l.cluster.allocNS, l.cluster.allocs), nil)
	rep.add("cluster.release_ns", "ns", mean(l.cluster.releaseNS, l.cluster.releases), nil)
	rep.add("cluster.runs_per_alloc", "runs", mean(l.cluster.runs, l.cluster.allocs), nil)
	rep.add("controller.passes", "count", perRound(a.controlPasses), nil)
	rep.add("controller.actuations", "count", perRound(a.actuations), nil)
	rep.add("controller.time_frac", "fraction", mean(a.seams[seamControl].Total, a.execNS), nil)
	rep.add("meter.time_frac", "fraction", mean(a.seams[seamMeter].Total, a.execNS), nil)
	rep.add("metrics.record_ns", "ns", mean(a.seams[seamMetrics].Total, a.seams[seamMetrics].Count), nil)
	rep.add("schedd.server_frac", "fraction", l.serverFrac, nil)
	rep.add("loadgen.late_frac", "fraction", l.lateFrac, nil)
	rep.add("cpu.sched_frac", "fraction", l.shares["repro/internal/sched"], nil)
	rep.add("cpu.sort_frac", "fraction", l.shares["sort"]+l.shares["slices"], nil)
	rep.add("cpu.profile_frac", "fraction", l.shares["repro/internal/profile"], nil)
	rep.add("cpu.cluster_frac", "fraction", l.shares["repro/internal/cluster"], nil)
	rep.add("cpu.sim_frac", "fraction", l.shares["repro/internal/sim"], nil)
	rep.add("cpu.core_frac", "fraction", l.shares["repro/internal/core"], nil)
	rep.add("cpu.wgen_frac", "fraction", l.shares["repro/internal/wgen"]+l.shares["repro/internal/stats"], nil)
	rep.add("cpu.controller_frac", "fraction", l.shares["repro/internal/altpolicy"]+l.shares["repro/internal/nodepower"], nil)
	rep.add("cpu.gc_frac", "fraction", l.gcFrac, nil)
	rep.add("go.alloc_bytes_per_job", "B/job", l.allocPerJob, nil)
	rep.add("trace.overhead_frac", "fraction", l.overhead, nil)
}

func (r *clusterReplay) add(o clusterReplay) {
	r.allocs += o.allocs
	r.releases += o.releases
	r.allocNS += o.allocNS
	r.releaseNS += o.releaseNS
	r.runs += o.runs
	r.mismatches += o.mismatches
}

// resetPeakRSS returns freed memory to the system and restarts the
// process's peak resident set size from its current size, so the peak a
// run reports is that of its timed rounds, not of the garbage its
// repeated set-ups left.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// vmHWMMB reads a process's peak resident set size (VmHWM) from its
// /proc status file.
func vmHWMMB(status string) (float64, error) {
	b, err := os.ReadFile(status)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in " + status)
}
