package metrics

import (
	"runtime"

	"repro/internal/sched"
)

// HeapWatermark rides along a simulation (scenario.Spec.ExtraRecorders) and
// tracks the live-heap high-water mark relative to a baseline captured at
// construction. It is the measurement behind the streaming pipeline's
// O(running jobs) claim: a materialized million-job replay's watermark is
// dominated by the trace slice, a streamed one by the running set.
//
// Sampling reads runtime.MemStats, which stops the world briefly, so the
// watermark probes only every Every scheduling passes (default 4096 —
// fine-grained enough to catch the peak of a long replay, cheap enough
// not to distort throughput).
type HeapWatermark struct {
	// Every is the pass-sampling stride; <= 0 selects 4096.
	Every int

	baseline uint64
	passes   int
	peak     uint64 // high-water of HeapAlloc - baseline
}

var (
	_ sched.Recorder     = (*HeapWatermark)(nil)
	_ sched.PassObserver = (*HeapWatermark)(nil)
)

// NewHeapWatermark garbage-collects, captures the current live heap as
// the baseline and returns a ready watermark: the peak it reports is the
// run's own footprint, not whatever previous work left on the heap.
func NewHeapWatermark(every int) *HeapWatermark {
	w := &HeapWatermark{Every: every}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.baseline = ms.HeapAlloc
	return w
}

// JobStarted implements sched.Recorder (no-op).
func (w *HeapWatermark) JobStarted(*sched.RunState, float64) {}

// JobFinished implements sched.Recorder (no-op).
func (w *HeapWatermark) JobFinished(*sched.RunState, float64) {}

// PassEnd implements sched.PassObserver, probing the heap every Every
// passes.
func (w *HeapWatermark) PassEnd(now float64, queued, busy int) {
	w.passes++
	every := w.Every
	if every <= 0 {
		every = 4096
	}
	if w.passes%every != 0 {
		return
	}
	w.Sample()
}

// Sample probes the heap immediately; callers may invoke it around
// phases the pass stride would miss (e.g. right after trace loading).
func (w *HeapWatermark) Sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > w.baseline && ms.HeapAlloc-w.baseline > w.peak {
		w.peak = ms.HeapAlloc - w.baseline
	}
}

// PeakMB returns the high-water mark in mebibytes.
func (w *HeapWatermark) PeakMB() float64 { return float64(w.peak) / (1 << 20) }
