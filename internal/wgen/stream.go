package wgen

import (
	"math"
	"sync"

	"repro/internal/stats"
	"repro/internal/workload"
)

// Source generates a model's trace lazily, one job per Next call, and is
// bit-identical to materializing the same model through Generate: the
// workload layer's streaming pipeline can replay a ten-million-job preset
// in O(running jobs) peak heap instead of holding the ~91 MB/1M-job slice.
//
// Generate fixes the arrival span from aggregate quantities (total demand,
// the sum of all gap weights, and — with a daily cycle — the cycle-adjusted
// gap sum) before it can place the first arrival. The stream recovers those
// aggregates without storing anything by replaying the deterministic RNG:
// construction runs one (or, with a daily cycle, two) summing passes over
// the seeded stream, and emission then re-draws each job with two RNG
// cursors — one positioned at the job-attribute section, one fast-forwarded
// to the gap section. The arithmetic per step is kept operation-for-
// operation identical to Generate's, so the floating point agrees exactly
// (TestStreamMatchesGenerate pins this for every preset). The price is a
// small constant factor of extra RNG work per generated job; the win is
// O(1) generator memory at any trace length. The gap cursor's fast-forward
// replays the attribute draws once per prototype, counting the source
// steps they consume; every later rewind, of the prototype or a clone,
// skips a fresh generator by that count without drawing a variate.
type Source struct {
	m     Model // defaults applied
	shape float64

	// Aggregates fixed at construction.
	span       float64 // arrival span realizing the target load
	gapSum     float64 // Σ raw gamma gap weights
	cycleScale float64 // span / Σ cycle-adjusted gaps (daily cycle only)

	// attr is the attribute section's source-step count, shared with
	// clones.
	attr *attrSteps

	// Emission state, built lazily on the first Next after construction
	// or Reset: the gap-cursor fast-forward costs an attribute replay (the
	// prototype's first) or a skip, so it must not be spent on sources
	// that are Reset before use (the scheduler always rewinds a source it
	// is handed).
	attrRNG  *stats.RNG // cursor over the job-attribute draws; nil = rewind pending
	gapRNG   *stats.RNG // cursor fast-forwarded to the gap draws
	drawUser func() int
	i        int
	t        float64 // pre-cycle submit accumulator
	submit   float64 // emitted submit accumulator (cycle path)
}

var (
	_ workload.JobSource = (*Source)(nil)
	_ workload.Counted   = (*Source)(nil)
)

// Stream returns a lazy generator for the model. Construction costs the
// RNG summing passes described on Source; a rewind (the first Next after
// construction or Reset) positions the gap cursor, by one more attribute
// replay on the first rewind of the source or any clone and by a step
// skip after that.
func Stream(m Model) (*Source, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	m = m.withDefaults()
	s := &Source{m: m, shape: 1 / (m.ArrivalCV * m.ArrivalCV), attr: &attrSteps{}}

	// Pass 1: replay attribute draws accumulating demand, then the gap
	// draws accumulating their sum — the exact accumulation order of
	// Generate, so span and gapSum match bit for bit.
	rng := stats.NewRNG(m.Seed)
	drawUser := m.newUserDraw(rng)
	demand := 0.0 // CPU·seconds
	for i := 0; i < m.Jobs; i++ {
		j := m.drawJob(rng, drawUser, i+1)
		demand += float64(j.Procs) * j.Runtime
	}
	for i := 0; i < m.Jobs-1; i++ {
		s.gapSum += rng.Gamma(s.shape, 1)
	}
	s.span = demand / (float64(m.CPUs) * m.Load)

	if m.DailyCycle > 0 {
		// Pass 2: replay the gaps once more, accumulating the pre-cycle
		// submit times and the cycle-adjusted gap sum applyDailyCycle
		// derives from them.
		rng2 := stats.NewRNG(m.Seed)
		drawUser2 := m.newUserDraw(rng2)
		for i := 0; i < m.Jobs; i++ {
			m.drawJob(rng2, drawUser2, i+1)
		}
		t, cycleSum := 0.0, 0.0
		for i := 1; i < m.Jobs; i++ {
			gap := rng2.Gamma(s.shape, 1)
			tNew := t
			if s.gapSum > 0 {
				tNew = t + gap/s.gapSum*s.span
			}
			// applyDailyCycle recomputes the gap by subtracting adjacent
			// submits and rates it at the later one; mirror both exactly.
			delta := tNew - t
			rate := 1 + m.DailyCycle*math.Sin(2*math.Pi*tNew/86400)
			cycleSum += delta / rate
			t = tNew
		}
		if cycleSum > 0 {
			s.cycleScale = s.span / cycleSum
		}
	}

	return s, nil
}

// rewind (re)builds the emission cursors.
func (s *Source) rewind() {
	s.attrRNG = stats.NewRNG(s.m.Seed)
	s.drawUser = s.m.newUserDraw(s.attrRNG)
	s.gapRNG = s.attr.gapCursor(s.m)
	s.i, s.t, s.submit = 0, 0, 0
}

// attrSteps is how many source steps a model's job-attribute section
// consumes, taken once per prototype and shared by its clones, which may
// rewind concurrently.
type attrSteps struct {
	once sync.Once
	n    int64
}

// gapCursor returns a generator for m positioned at the gap draws. The
// first call replays the attribute section on a counting generator,
// records its step count and returns it; later calls skip a fresh
// generator by the count.
func (a *attrSteps) gapCursor(m Model) *stats.RNG {
	var rng *stats.RNG
	a.once.Do(func() {
		rng = stats.NewCountingRNG(m.Seed)
		drawUser := m.newUserDraw(rng)
		for i := 0; i < m.Jobs; i++ {
			m.drawJob(rng, drawUser, i+1)
		}
		a.n = rng.Steps()
	})
	if rng == nil {
		rng = stats.NewRNG(m.Seed)
		rng.Skip(a.n)
	}
	return rng
}

// Clone returns an independent source over the same model. The clone
// shares the construction-time aggregates (span, gap sum, cycle scale)
// and the attribute step count — so cloning is O(1) and never repeats the
// summing passes, nor a counted replay the prototype made — and starts
// rewind-pending with its own RNG cursors, making it safe to hand each
// concurrent replay of one shared prototype its own clone.
func (s *Source) Clone() *Source {
	c := *s
	c.attrRNG, c.gapRNG, c.drawUser = nil, nil, nil
	c.i, c.t, c.submit = 0, 0, 0
	return &c
}

// Name implements workload.JobSource.
func (s *Source) Name() string { return s.m.Name }

// CPUs implements workload.JobSource.
func (s *Source) CPUs() int { return s.m.CPUs }

// Len implements workload.Counted.
func (s *Source) Len() int { return s.m.Jobs }

// Err implements workload.JobSource; generation cannot fail after
// construction.
func (s *Source) Err() error { return nil }

// Reset implements workload.JobSource. The cursor rebuild is deferred to
// the next Next call.
func (s *Source) Reset() error {
	s.attrRNG = nil
	return nil
}

// Next implements workload.JobSource.
func (s *Source) Next() (workload.Job, bool) {
	if s.attrRNG == nil {
		s.rewind()
	}
	if s.i >= s.m.Jobs {
		return workload.Job{}, false
	}
	j := s.m.drawJob(s.attrRNG, s.drawUser, s.i+1)
	if s.i > 0 {
		// Generate: t += gaps[i-1]/sum*span, guarded on sum > 0.
		gap := s.gapRNG.Gamma(s.shape, 1)
		tNew := s.t
		if s.gapSum > 0 {
			tNew = s.t + gap/s.gapSum*s.span
		}
		if s.m.DailyCycle > 0 {
			delta := tNew - s.t
			rate := 1 + s.m.DailyCycle*math.Sin(2*math.Pi*tNew/86400)
			s.submit += (delta / rate) * s.cycleScale
			j.Submit = s.submit
		} else {
			j.Submit = tNew
		}
		s.t = tNew
	}
	s.i++
	return j, true
}
