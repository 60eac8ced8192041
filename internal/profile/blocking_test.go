package profile

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBlockingEarliestReplaysTheSweepRule(t *testing.T) {
	b := Blocking{{From: 0, To: 4, Excess: 2}, {From: 6, To: 9, Excess: 1}, {From: 15, To: 20, Excess: 3}}
	cases := []struct {
		dur, from, want float64
	}{
		{2, 0, 4},   // [4, 6) holds 2 s
		{3, 0, 9},   // too short before 6, [9, 15) holds 3
		{6, 0, 9},   // exactly fits before 15
		{7, 0, 20},  // nothing fits before the last stretch ends
		{0, 0, 4},   // a zero duration still needs a free instant
		{0, 4, 4},   // a stretch ending at the candidate does not hold it
		{2, 5, 9},   // one second before 6 is too short
		{5, 10, 10}, // the replay may start past earlier stretches
		{9, 21, 21}, // and past all of them
	}
	for _, c := range cases {
		if got := b.Earliest(c.dur, c.from); got != c.want {
			t.Errorf("Earliest(%v, %v) = %v, want %v", c.dur, c.from, got, c.want)
		}
	}
}

func TestBlockingCredit(t *testing.T) {
	base := Blocking{{From: 0, To: 4, Excess: 2}, {From: 6, To: 12, Excess: 3}, {From: 15, To: 20, Excess: 1}}
	cases := []struct {
		name     string
		cpus     int
		from, to float64
		lowered  bool
		want     Blocking
	}{
		{"disjoint, past stretches drop", 5, 12, 15, false,
			Blocking{{From: 15, To: 20, Excess: 1}}},
		{"split at the credit's end", 1, 5, 8, true,
			Blocking{{From: 6, To: 8, Excess: 2}, {From: 8, To: 12, Excess: 3}, {From: 15, To: 20, Excess: 1}}},
		{"clip at the pass time", 1, 8, 13, true,
			Blocking{{From: 8, To: 12, Excess: 2}, {From: 15, To: 20, Excess: 1}}},
		{"exhausted stretches drop", 1, 3, 30, true,
			Blocking{{From: 3, To: 4, Excess: 1}, {From: 6, To: 12, Excess: 2}}},
		{"empty credit", 4, 9, 9, false,
			Blocking{{From: 6, To: 12, Excess: 3}, {From: 15, To: 20, Excess: 1}}},
	}
	for _, c := range cases {
		b := append(Blocking(nil), base...)
		if got := b.Credit(c.cpus, c.from, c.to); got != c.lowered {
			t.Errorf("%s: Credit reported %v, want %v", c.name, got, c.lowered)
		}
		if len(b) != len(c.want) {
			t.Errorf("%s: %v, want %v", c.name, b, c.want)
			continue
		}
		for i := range b {
			if b[i] != c.want[i] {
				t.Errorf("%s: %v, want %v", c.name, b, c.want)
				break
			}
		}
	}
}

// TestQuickCreditedBlockingBoundsFreshSweep drives a profile through
// completions and starts after recording one placement's blocking, and
// credits the blocking with every completion, as the scheduler does with
// its retained reservations. After every step each stretch left must
// still be violated by at least its recorded excess over its whole span
// (checked segment by segment), the replay must not pass a fresh sweep's
// answer, and — while only completions happened — a replay that still
// returns the recorded answer must match a fresh sweep exactly.
func TestQuickCreditedBlockingBoundsFreshSweep(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := 8 + r.Intn(56)
		now := 0.0
		p := New(total)
		var running []incJob
		var rels []Release
		for i := 0; i < 2+r.Intn(10); i++ {
			rels = append(rels, Release{Time: float64(1 + r.Intn(200)), CPUs: 1 + r.Intn(total/2)})
		}
		sortReleases(rels)
		p.LoadReleases(total, now, rels)
		p.BeginPass(now)
		for _, rel := range rels {
			running = append(running, incJob{cpus: rel.CPUs, end: rel.Time})
		}
		for i := 0; i < r.Intn(6); i++ {
			cpus, dur := 1+r.Intn(total), float64(1+r.Intn(80))
			st := p.EarliestStart(cpus, dur, now)
			p.AddReservation(Entry{Start: st, End: st + dur, CPUs: cpus})
		}
		cpus, dur := 1+r.Intn(total), float64(r.Intn(60))
		var b Blocking
		want := p.EarliestStartBlocked(cpus, dur, now, &b)
		limit := total - cpus
		started := false
		for step := 0; step < 40; step++ {
			now += float64(r.Intn(4))
			p.BeginPass(now)
			switch {
			case r.Intn(3) > 0 && len(running) > 0:
				k := r.Intn(len(running))
				j := running[k]
				running = append(running[:k], running[k+1:]...)
				p.Vacate(j.cpus, now, j.end)
				b.Credit(j.cpus, now, j.end)
			case r.Intn(2) == 0:
				j := incJob{cpus: 1 + r.Intn(total/2), end: now + float64(1+r.Intn(100))}
				p.Add(Entry{Start: now, End: j.end, CPUs: j.cpus})
				running = append(running, j)
				started = true
			}
			for _, s := range b {
				if s.To <= now {
					continue
				}
				at := []float64{max(s.From, now)}
				for ci := range p.dex.chunks {
					for _, d := range p.dex.chunks[ci].ds {
						if d.t > at[0] && d.t < s.To {
							at = append(at, d.t)
						}
					}
				}
				for _, q := range at {
					if ex := p.UsedAt(q) - limit; ex < s.Excess {
						t.Logf("seed %d step %d: stretch %+v records excess %d, usage at %v exceeds by %d",
							seed, step, s, s.Excess, q, ex)
						return false
					}
				}
			}
			fresh := p.EarliestStart(cpus, dur, now)
			replay := b.Earliest(dur, now)
			if replay > fresh {
				t.Logf("seed %d step %d: replay %v passes the fresh sweep's %v", seed, step, replay, fresh)
				return false
			}
			if !started && want >= now && replay == want && fresh != want {
				t.Logf("seed %d step %d: replay reproduces %v, fresh sweep %v", seed, step, want, fresh)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
