package wgen

import (
	"fmt"
	"math"
	"strings"
)

// Paper Table 1, for reference while calibrating:
//
//	Workload      #CPUs  jobs(K)  avg BSLD (no DVFS)
//	CTC            430   20–25    4.66
//	SDSC           128   40–45    24.91
//	SDSCBlue      1152   20–25    5.15
//	LLNLThunder   4008   20–25    1.00
//	LLNLAtlas     9216   10–15    1.08
//
// Each preset generates the 5000-job segment the paper simulates. The
// Load values below are calibrated against our EASY implementation so
// the baseline average BSLDs land near Table 1: cmd/calibrate prints the
// comparison, and the first check of internal/experiments/checks.go holds
// them within 35% of the paper's values.

// StandardJobs is the trace segment length the paper simulates.
const StandardJobs = 5000

// CTC returns the model of the Cornell Theory Center IBM SP2 log: many
// large (long) jobs with a relatively low degree of parallelism.
func CTC() Model {
	return Model{
		Name: "CTC", CPUs: 430, Jobs: StandardJobs, Seed: 430001,
		Load: 1.04, ArrivalCV: 2.4,
		SerialFrac: 0.35, MinProcs: 1, MaxProcs: 336, Pow2Frac: 0.4,
		SizeLogMean: math.Log(4), SizeLogSigma: 1.3,
		ShortFrac: 0.2, ShortMean: 240,
		RtLogMean: math.Log(2800), RtLogSigma: 1.7, MaxRuntime: 18 * 3600,
		AccurateFrac: 0.2, OverestMean: 1.6,
	}
}

// SDSC returns the model of the San Diego Supercomputer Center SP2 log:
// fewer sequential jobs than CTC, similar runtimes, heavily overloaded
// (the paper's baseline average BSLD is 24.91).
func SDSC() Model {
	return Model{
		Name: "SDSC", CPUs: 128, Jobs: StandardJobs, Seed: 128001,
		Load: 1.12, ArrivalCV: 1.2,
		SerialFrac: 0.25, MinProcs: 1, MaxProcs: 128, Pow2Frac: 0.5,
		SizeLogMean: math.Log(4), SizeLogSigma: 1.2,
		ShortFrac: 0.2, ShortMean: 240,
		RtLogMean: math.Log(2800), RtLogSigma: 1.7, MaxRuntime: 18 * 3600,
		AccurateFrac: 0.2, OverestMean: 1.6,
	}
}

// SDSCBlue returns the model of the SDSC Blue Horizon log: no sequential
// jobs — every job gets at least 8 processors, mostly powers of two.
func SDSCBlue() Model {
	return Model{
		Name: "SDSCBlue", CPUs: 1152, Jobs: StandardJobs, Seed: 1152001,
		Load: 0.69, ArrivalCV: 2.0,
		SerialFrac: 0, MinProcs: 8, MaxProcs: 1152, Pow2Frac: 0.85,
		SizeLogMean: math.Log(32), SizeLogSigma: 1.2,
		ShortFrac: 0.25, ShortMean: 300,
		RtLogMean: math.Log(1600), RtLogSigma: 1.6, MaxRuntime: 36 * 3600,
		AccurateFrac: 0.2, OverestMean: 1.5,
	}
}

// LLNLThunder returns the model of the LLNL Thunder log: large numbers of
// smaller and medium jobs, most shorter than the 600 s BSLD threshold, on
// a big machine — the baseline average BSLD is exactly 1.
func LLNLThunder() Model {
	return Model{
		Name: "LLNLThunder", CPUs: 4008, Jobs: StandardJobs, Seed: 4008001,
		Load: 0.82, ArrivalCV: 1.0,
		SerialFrac: 0.2, MinProcs: 1, MaxProcs: 1024, Pow2Frac: 0.5,
		SizeLogMean: math.Log(32), SizeLogSigma: 1.1,
		ShortFrac: 0.4, ShortMean: 300,
		RtLogMean: math.Log(5400), RtLogSigma: 1.3, MaxRuntime: 24 * 3600,
		AccurateFrac: 0.25, OverestMean: 1.4,
	}
}

// LLNLAtlas returns the model of the LLNL Atlas log: large parallel jobs
// on the biggest system of the study, lightly loaded (baseline 1.08).
func LLNLAtlas() Model {
	return Model{
		Name: "LLNLAtlas", CPUs: 9216, Jobs: StandardJobs, Seed: 9216001,
		Load: 0.52, ArrivalCV: 1.0,
		SerialFrac: 0.05, MinProcs: 8, MaxProcs: 8192, Pow2Frac: 0.7,
		SizeLogMean: math.Log(256), SizeLogSigma: 1.0,
		ShortFrac: 0.3, ShortMean: 300,
		RtLogMean: math.Log(2400), RtLogSigma: 1.4, MaxRuntime: 24 * 3600,
		AccurateFrac: 0.4, OverestMean: 0.6,
	}
}

// MillionJobs is the trace length of the large-scale stress preset.
const MillionJobs = 1_000_000

// Million returns a production-scale stress preset: one million mostly
// small, short jobs on a 32K-processor machine at 85% offered load, with
// on the order of ten thousand jobs running concurrently. It is NOT part
// of the paper's evaluation (Presets) — it exists to exercise the
// scheduler hot path at a scale where the seed implementation's O(trace)
// event heap and O(running) completion removal dominated the wall clock.
func Million() Model {
	return Model{
		Name: "Million", CPUs: 32768, Jobs: MillionJobs, Seed: 32768001,
		Load: 0.85, ArrivalCV: 1.5,
		SerialFrac: 0.7, MinProcs: 1, MaxProcs: 256, Pow2Frac: 0.5,
		SizeLogMean: math.Log(2), SizeLogSigma: 1.0,
		ShortFrac: 0.3, ShortMean: 120,
		RtLogMean: math.Log(1800), RtLogSigma: 1.5, MaxRuntime: 12 * 3600,
		AccurateFrac: 0.25, OverestMean: 1.5,
	}
}

// TenMillionJobs is the trace length of the streaming-scale stress preset.
const TenMillionJobs = 10_000_000

// TenMillion returns the streaming-scale stress preset: ten million jobs
// on the Million preset's 32K-processor machine, with a mild daily
// arrival cycle so the multi-week horizon exercises non-stationary load.
// The amplitude keeps the peak offered load under 1 (0.85 × 1.1): a
// sustained overload would grow the wait queue without bound, which
// stresses queue scans rather than the streaming pipeline this preset
// exists for. A trace this long cannot reasonably be materialized (~1 GB
// of Job structs plus the generation arrays); it is meant to be replayed
// through wgen.Stream → scenario.Spec.Source, which holds O(running jobs)
// peak heap regardless of trace length.
func TenMillion() Model {
	m := Million()
	m.Name = "TenMillion"
	m.Jobs = TenMillionJobs
	m.Seed = 32768010
	m.DailyCycle = 0.1
	return m
}

// Presets returns the five workload models in the paper's order.
func Presets() []Model {
	return []Model{CTC(), SDSC(), SDSCBlue(), LLNLThunder(), LLNLAtlas()}
}

// Preset looks a model up by case-insensitive name, including the
// non-paper Million and TenMillion stress presets.
func Preset(name string) (Model, error) {
	for _, m := range append(Presets(), Million(), TenMillion()) {
		if strings.EqualFold(m.Name, name) {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("wgen: unknown workload %q (have CTC, SDSC, SDSCBlue, LLNLThunder, LLNLAtlas, Million, TenMillion)", name)
}
