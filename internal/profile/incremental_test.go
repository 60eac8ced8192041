package profile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// incJob is one simulated running job for the differential driver: cpus
// busy until end (the End its occupancy was recorded with).
type incJob struct {
	cpus int
	end  float64
}

// TestQuickIncrementalMatchesFreshOracle is the differential regression
// for the persistent profile: it drives thousands of mixed passes —
// completions (Vacate credits), starts (Add), reservation placements and
// changed-prefix truncations — through one profile and, every pass,
// asserts that UsedAt and EarliestStart answer exactly like the flat
// sorted-slice oracle rebuilt from scratch out of the live occupancies
// and the reservation journal. Every EarliestStart is also evaluated with
// the linear merge sweep over the materialized chunked tiers, which must
// agree with the chunk-skipping sweep to the bit. Integer times force
// equal-timestamp collisions; the fold and truncate paths all trigger at
// these sizes.
func TestQuickIncrementalMatchesFreshOracle(t *testing.T) {
	passes := 1500
	if testing.Short() {
		passes = 200
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := 8 + r.Intn(56)
		now := float64(r.Intn(10))

		var running []incJob
		var resvs []Entry // mirrors the profile's reservation journal
		p := New(total)

		// Seed the epoch with a few running jobs.
		for i := 0; i < r.Intn(8); i++ {
			running = append(running, incJob{cpus: 1 + r.Intn(total/2), end: now + float64(1+r.Intn(200))})
		}
		rels := make([]Release, len(running))
		for i, j := range running {
			rels[i] = Release{Time: j.end, CPUs: j.cpus}
		}
		sortReleases(rels)
		p.LoadReleases(total, now, rels)
		p.BeginPass(now)

		check := func() bool {
			// Fresh oracle: live occupancies clipped to [now, ∞) plus the
			// journaled reservations.
			oracle := &flatTiers{total: total}
			for _, j := range running {
				oracle.add(Entry{Start: now, End: j.end, CPUs: j.cpus})
			}
			for _, e := range resvs {
				oracle.addReservation(e)
			}
			probes := []float64{now, now + 0.5, now + float64(r.Intn(300))}
			for _, j := range running {
				probes = append(probes, j.end)
			}
			for _, e := range resvs {
				if e.Start >= now {
					probes = append(probes, e.Start)
				}
				if e.End >= now {
					probes = append(probes, e.End)
				}
			}
			for _, q := range probes {
				if q < now {
					continue
				}
				if p.UsedAt(q) != oracle.usedAt(q) {
					t.Logf("seed %d: UsedAt(%v) = %d, oracle %d", seed, q, p.UsedAt(q), oracle.usedAt(q))
					return false
				}
			}
			for trial := 0; trial < 4; trial++ {
				cpus := 1 + r.Intn(total)
				dur := float64(r.Intn(120))
				from := now
				if trial%2 == 1 {
					from = now + float64(r.Intn(150))
				}
				want, wantRec := oracle.earliestBlocked(cpus, dur, from)
				got := p.EarliestStart(cpus, dur, from)
				lin, _ := linearEarliest(p, cpus, dur, from)
				if got != want || lin != want {
					t.Logf("seed %d: EarliestStart(%d, %v, %v) indexed=%v linear=%v oracle=%v (dex=%d)",
						seed, cpus, dur, from, got, lin, want, p.dex.len())
					return false
				}
				if err := blockedMatches(p, cpus, dur, from, want, wantRec); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				if p.CanPlace(cpus, from, dur) != oracle.canPlace(cpus, from, dur) {
					t.Logf("seed %d: CanPlace(%d, %v, %v) diverged", seed, cpus, from, dur)
					return false
				}
			}
			return true
		}

		for pass := 0; pass < passes; pass++ {
			now += float64(r.Intn(4))
			if r.Intn(40) == 0 {
				// Long idle gap: the whole base expires behind the horizon.
				now += 500
			}
			p.BeginPass(now)
			switch r.Intn(10) {
			case 0, 1, 2: // completion: credit the planned tail
				if len(running) > 0 {
					i := r.Intn(len(running))
					j := running[i]
					p.Vacate(j.cpus, now, j.end)
					running = append(running[:i], running[i+1:]...)
				}
			case 3, 4, 5, 6: // start: new occupancy from now
				j := incJob{cpus: 1 + r.Intn(total/2), end: now + float64(1+r.Intn(200))}
				p.Add(Entry{Start: now, End: j.end, CPUs: j.cpus})
				running = append(running, j)
			case 7, 8: // reservation placed at (or past) its earliest start
				cpus := 1 + r.Intn(total)
				dur := float64(r.Intn(90))
				st := p.EarliestStart(cpus, dur, now)
				e := Entry{Start: st, End: st + dur, CPUs: cpus}
				p.AddReservation(e)
				resvs = append(resvs, e)
			default: // replan: drop a suffix of the reservations
				if n := len(resvs); n > 0 {
					keep := r.Intn(n + 1)
					p.TruncateReservations(keep)
					resvs = resvs[:keep]
				}
			}
			if p.Reservations() != len(resvs) {
				t.Logf("seed %d: journal %d, driver %d", seed, p.Reservations(), len(resvs))
				return false
			}
			if pass%7 == 0 || pass == passes-1 {
				if !check() {
					return false
				}
			}
		}
		return check()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestQuickSkylineIndexMatchesLinearSweep pins the chunk-skipping sweep
// to the linear reference on epochs large enough that the skyline index
// spans many chunks, with reservations overlaid.
func TestQuickSkylineIndexMatchesLinearSweep(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := 256 + r.Intn(1024)
		now := float64(r.Intn(5))
		n := 200 + r.Intn(400)
		rels := make([]Release, n)
		for i := range rels {
			rels[i] = Release{Time: now + float64(1+r.Intn(2000)), CPUs: 1 + r.Intn(8)}
		}
		sortReleases(rels)
		p := New(total)
		p.LoadReleases(total, now, rels)
		if len(p.dex.chunks) < 2 {
			t.Log("skyline index fits one chunk on a large epoch")
			return false
		}
		for step := 0; step < 60; step++ {
			now += float64(r.Intn(3))
			p.BeginPass(now)
			switch r.Intn(3) {
			case 0:
				p.Add(Entry{Start: now, End: now + float64(1+r.Intn(800)), CPUs: 1 + r.Intn(32)})
			case 1:
				st := now + float64(r.Intn(500))
				p.AddReservation(Entry{Start: st, End: st + float64(1+r.Intn(300)), CPUs: 1 + r.Intn(64)})
			default:
			}
			cpus := 1 + r.Intn(total)
			dur := float64(r.Intn(600))
			from := now + float64(r.Intn(100))
			got := p.EarliestStart(cpus, dur, from)
			lin, linRec := linearEarliest(p, cpus, dur, from)
			if got != lin {
				t.Logf("seed %d step %d: EarliestStart(%d, %v, %v) indexed=%v linear=%v",
					seed, step, cpus, dur, from, got, lin)
				return false
			}
			if err := blockedMatches(p, cpus, dur, from, lin, linRec); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The persistent profile's live delta count must track the running and
// planned set, not the history: after thousands of start/complete cycles
// at a bounded running-set size, the base skyline stays bounded too. The
// chunked skyline index cancels credit pairs on contact, so it holds one
// delta per distinct live end, plus slack for same-pass stragglers ahead
// of a fold.
func TestIncrementalBaseStaysBounded(t *testing.T) {
	t.Run("indexed", func(t *testing.T) {
		const total = 1 << 12
		r := rand.New(rand.NewSource(5))
		p := New(total)
		now := 0.0
		p.LoadReleases(total, now, nil)
		var running []incJob
		for pass := 0; pass < 20000; pass++ {
			now += 1
			p.BeginPass(now)
			if len(running) < 64 && r.Intn(3) > 0 {
				j := incJob{cpus: 1 + r.Intn(32), end: now + float64(1+r.Intn(400))}
				p.Add(Entry{Start: now, End: j.end, CPUs: j.cpus})
				running = append(running, j)
			} else if len(running) > 0 {
				i := r.Intn(len(running))
				j := running[i]
				p.Vacate(j.cpus, now, j.end)
				running = append(running[:i], running[i+1:]...)
			}
			p.UsedAt(now) // exercise the fold
		}
		// Planned ends reach at most 400 ticks ahead and the running set
		// is capped at 64 jobs, so the live footprint must stay in the
		// hundreds even though 20k mutations flowed through.
		if n := p.BaseDeltas(); n > 64+16 {
			t.Fatalf("base deltas grew to %d after 20k bounded-churn passes", n)
		}
	})
}

// TestQuickProfileMatchesFlatTiers is the pairwise differential for the
// chunked skyline: one profile and the flat sorted-slice oracle
// (flatTiers) are driven through the same mixed op stream — starts,
// completions, reservation placements at colliding integer times, suffix
// truncations including full and no-op ones — and must answer every
// UsedAt and EarliestStart identically and agree on the base delta
// count, with the index invariants intact after every pass.
func TestQuickProfileMatchesFlatTiers(t *testing.T) {
	passes := 1200
	if testing.Short() {
		passes = 150
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := 16 + r.Intn(112)
		now := float64(r.Intn(8))

		idx := New(total)
		flat := &flatTiers{total: total}
		var rels []Release
		for i := 0; i < r.Intn(12); i++ {
			rels = append(rels, Release{Time: now + float64(1+r.Intn(300)), CPUs: 1 + r.Intn(total/3)})
		}
		sortReleases(rels)
		idx.LoadReleases(total, now, rels)
		var running []incJob
		for _, rel := range rels {
			flat.add(Entry{Start: now, End: rel.Time, CPUs: rel.CPUs})
			running = append(running, incJob{cpus: rel.CPUs, end: rel.Time})
		}
		resvs := 0
		for pass := 0; pass < passes; pass++ {
			now += float64(r.Intn(3))
			idx.BeginPass(now)
			switch r.Intn(12) {
			case 0, 1, 2:
				j := incJob{cpus: 1 + r.Intn(total/2), end: now + float64(1+r.Intn(250))}
				idx.Add(Entry{Start: now, End: j.end, CPUs: j.cpus})
				flat.add(Entry{Start: now, End: j.end, CPUs: j.cpus})
				running = append(running, j)
			case 3, 4:
				if len(running) > 0 {
					i := r.Intn(len(running))
					j := running[i]
					idx.Vacate(j.cpus, now, j.end)
					flat.vacate(j.cpus, now, j.end)
					running = append(running[:i], running[i+1:]...)
				}
			case 5, 6, 7, 8:
				// Integer start/duration force equal-time pileups of
				// reservation and base deltas.
				cpus := 1 + r.Intn(total)
				dur := float64(r.Intn(60))
				st := idx.EarliestStart(cpus, dur, now)
				e := Entry{Start: st, End: st + dur, CPUs: cpus}
				idx.AddReservation(e)
				flat.addReservation(e)
				resvs++
			default:
				keep := 0
				if resvs > 0 {
					keep = r.Intn(resvs + 1) // full, partial and no-op cuts
				}
				idx.TruncateReservations(keep)
				flat.truncate(keep)
				resvs = keep
			}
			if err := checkSkyDexInvariants(&idx.dex); err != nil {
				t.Logf("seed %d pass %d: skyline index: %v", seed, pass, err)
				return false
			}
			for trial := 0; trial < 3; trial++ {
				q := now + float64(r.Intn(200))
				if iu, fu := idx.UsedAt(q), flat.usedAt(q); iu != fu {
					t.Logf("seed %d pass %d: UsedAt(%v) indexed=%d flat=%d", seed, pass, q, iu, fu)
					return false
				}
				cpus := 1 + r.Intn(total)
				dur := float64(r.Intn(90))
				from := now + float64(r.Intn(40))
				ie := idx.EarliestStart(cpus, dur, from)
				fe, feRec := flat.earliestBlocked(cpus, dur, from)
				if ie != fe {
					t.Logf("seed %d pass %d: EarliestStart(%d,%v,%v) indexed=%v flat=%v (dex=%d)",
						seed, pass, cpus, dur, from, ie, fe, idx.dex.len())
					return false
				}
				if err := blockedMatches(idx, cpus, dur, from, fe, feRec); err != nil {
					t.Logf("seed %d pass %d: %v", seed, pass, err)
					return false
				}
			}
			if ib, fb := idx.BaseDeltas(), flat.baseDeltas(now); ib != fb {
				t.Logf("seed %d pass %d: BaseDeltas indexed=%d flat=%d", seed, pass, ib, fb)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestTruncateReservationsWorkBounds pins the rollback cost contract: a
// truncate reprocesses exactly the dropped journal suffix, whatever the
// size of the kept prefix, and repeated truncation to an already-applied
// prefix — the scheduler's steady state when a pass invalidates nothing
// — costs zero work. After any truncate the skyline holds exactly the
// base and the kept reservations' deltas.
func TestTruncateReservationsWorkBounds(t *testing.T) {
	const total = 64
	build := func(n int) *Profile {
		p := New(total)
		p.LoadReleases(total, 0, []Release{{Time: 3, CPUs: 2}, {Time: 7, CPUs: 5}})
		p.BeginPass(0)
		for i := 0; i < n; i++ {
			st := float64(1 + i%37)
			p.AddReservation(Entry{Start: st, End: st + 5, CPUs: 1 + i%3})
		}
		return p
	}
	// same compares a truncated profile with build(n) from scratch: the
	// epoch's base plus the first n reservations of the journal.
	same := func(t *testing.T, got, ref *Profile) {
		t.Helper()
		if err := checkSkyDexInvariants(&got.dex); err != nil {
			t.Fatal(err)
		}
		if got.dex.len() != ref.dex.len() || got.BaseDeltas() != ref.BaseDeltas() {
			t.Fatalf("skyline holds %d deltas (%d base), a fresh build %d (%d base)",
				got.dex.len(), got.BaseDeltas(), ref.dex.len(), ref.BaseDeltas())
		}
		for q := 0.0; q < 50; q += 0.5 {
			if got.UsedAt(q) != ref.UsedAt(q) {
				t.Fatalf("UsedAt(%v) = %d, fresh build %d", q, got.UsedAt(q), ref.UsedAt(q))
			}
		}
	}

	t.Run("indexed-suffix-removal", func(t *testing.T) {
		p := build(1000)
		p.TruncateReservations(990)
		if p.truncWork != 10 {
			t.Fatalf("dropping a 10-entry suffix cost %d, want 10", p.truncWork)
		}
		if p.Reservations() != 990 {
			t.Fatalf("after cut: %d journaled, want 990", p.Reservations())
		}
		same(t, p, build(990))
	})
	t.Run("indexed-short-prefix", func(t *testing.T) {
		p := build(1000)
		p.TruncateReservations(10)
		if p.truncWork != 990 {
			t.Fatalf("keeping a 10-entry prefix cost %d, want the 990-entry suffix", p.truncWork)
		}
		same(t, p, build(10))
	})
	t.Run("indexed-full-truncate", func(t *testing.T) {
		p := build(1000)
		p.TruncateReservations(0)
		if p.truncWork != 1000 {
			t.Fatalf("full truncate cost %d, want 1000", p.truncWork)
		}
		same(t, p, build(0))
	})
	t.Run("repeated-same-prefix-indexed", func(t *testing.T) {
		p := build(500)
		p.TruncateReservations(200)
		w := p.truncWork
		for i := 0; i < 100; i++ {
			p.TruncateReservations(200) // already applied: the journal shrank
			p.TruncateReservations(700) // beyond the journal: equally free
		}
		if p.truncWork != w {
			t.Fatalf("repeated truncate-to-same-prefix cost %d extra entries, want 0", p.truncWork-w)
		}
		if p.Reservations() != 200 {
			t.Fatalf("journal at %d entries, want 200", p.Reservations())
		}
		same(t, p, build(200))
	})
}

// fuzzDur decodes a duration: the low five bits in whole seconds plus 32
// s per unit of the top two, bit 5 moving it one ulp up, so that
// cand+dur can round down onto a delta time that lies less than dur
// after cand.
func fuzzDur(x byte) float64 {
	d := float64(x&0x1f) + 32*float64(x>>6)
	if x&0x20 != 0 {
		d = math.Nextafter(d, math.Inf(1))
	}
	return d
}

// FuzzProfileMatchesFlatTiers drives a Profile and the flat sorted-slice
// oracle (flatTiers) from one byte-encoded op stream and, after every
// op, checks the skyline invariants, UsedAt, EarliestStart (also against
// the linear sweep over the materialized index), the stretches
// EarliestStartBlocked records (the same bounds as the linear sweep's
// violated stretches, each excess positive and at most the true
// minimum), CanPlace and the base delta count. The first byte sizes the machine; each op then takes three
// bytes (op, a, b), at most 400 ops, with op%8 selecting LoadReleases, Add, Vacate,
// BeginPass, AddReservation or TruncateReservations (6 and 7 only query)
// and op>>3 an extra argument; an AddReservation at the earliest fit may
// have a job start or a cut between the sweep and the reservation. Times are small integers, so reservation
// and base deltas collide and coalesce, and durations can sit one ulp
// above an integer. The seed corpus lives under
// testdata/fuzz/FuzzProfileMatchesFlatTiers; CI runs a short -fuzz smoke
// on top of the seeds. Its slot-* seeds reserve the earliest fit right
// after the sweep that found it, with a job start or a cut in between,
// and at windows of no length; four-chunks-fresh-skip grows the skyline
// to six chunks, so later sweeps skip chunks earlier full scans left
// fresh.
func FuzzProfileMatchesFlatTiers(f *testing.F) {
	f.Add([]byte{})
	// Load, start, reserve, pass, cut: the scheduler's pass shape.
	f.Add([]byte{7, 0, 21, 9, 1, 5, 40, 36, 3, 7, 3, 2, 0, 5, 0, 0})
	// Reservation churn deep enough to split and merge chunks.
	seed := []byte{60}
	for i := 0; i < 200; i++ {
		seed = append(seed, byte(4|(i%16)<<3), byte(i), byte(i*7))
		if i%25 == 24 {
			seed = append(seed, 5, byte(i/3), 0, 3, 1, 0)
		}
	}
	f.Add(seed)
	// Completions and starts around a standing queue.
	f.Add([]byte{31, 0, 40, 99, 1, 9, 12, 1, 3, 17, 36, 7, 20, 3, 1, 0, 2, 0, 0, 5, 0, 0, 1, 2, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		total := 4 + int(data[0])%60
		// The oracle answers in linear time, so cap the op count to keep
		// each input quick.
		data = data[1:min(len(data), 1+3*400)]
		p := New(total)
		flat := &flatTiers{total: total}
		now, horizon := 0.0, math.Inf(-1)
		var running []incJob
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			c := op >> 3
			switch op % 8 {
			case 0: // LoadReleases: a fresh epoch of up to five running jobs
				var rels []Release
				for k := 0; k < int(a)%6; k++ {
					rels = append(rels, Release{
						Time: now + float64(1+(int(b)+5*k)%13),
						CPUs: 1 + (int(a)/8+3*k)%(total/2),
					})
				}
				sortReleases(rels)
				p.LoadReleases(total, now, rels)
				*flat = flatTiers{total: total}
				running = running[:0]
				for _, r := range rels {
					flat.add(Entry{Start: now, End: r.Time, CPUs: r.CPUs})
					running = append(running, incJob{cpus: r.CPUs, end: r.Time})
				}
				horizon = math.Inf(-1)
			case 1: // Add: a job starting now
				e := Entry{Start: now, End: now + fuzzDur(b), CPUs: 1 + int(a)%(total/2)}
				p.Add(e)
				flat.add(e)
				if e.End > e.Start {
					running = append(running, incJob{cpus: e.CPUs, end: e.End})
				}
			case 2: // Vacate: a running job completes now
				if len(running) == 0 {
					break
				}
				k := int(a) % len(running)
				if j := running[k]; j.end > now {
					p.Vacate(j.cpus, now, j.end)
					flat.vacate(j.cpus, now, j.end)
				}
				running = append(running[:k], running[k+1:]...)
			case 3: // BeginPass: whole seconds, or one ulp
				if a&0x10 != 0 {
					now = math.Nextafter(now, math.Inf(1))
				} else {
					now += float64(a % 4)
				}
				p.BeginPass(now)
				horizon = now
				if a&0x40 != 0 {
					// A pass opening with a cut, as the scheduler's does:
					// nothing has folded the new horizon yet.
					keep := int(b) % (len(flat.resvLog) + 2)
					p.TruncateReservations(keep)
					flat.truncate(keep)
				}
			case 4: // AddReservation: at an integer offset or the earliest fit
				cpus := 1 + int(a)%total
				dur := fuzzDur(b)
				st := now + float64(c&0x0f)
				if c&0x10 != 0 {
					// The earliest fit, reserved right after the sweep that
					// found it or, by c's low bits, after a job start or a
					// cut of the newest reservation in between.
					st = p.EarliestStart(cpus, dur, now)
					switch c & 0x03 {
					case 1:
						e := Entry{Start: now, End: now + float64(1+int(a)%7), CPUs: 1 + int(b)%(total/2)}
						p.Add(e)
						flat.add(e)
						running = append(running, incJob{cpus: e.CPUs, end: e.End})
					case 2:
						keep := max(len(flat.resvLog)-1, 0)
						p.TruncateReservations(keep)
						flat.truncate(keep)
					}
				}
				e := Entry{Start: st, End: st + dur, CPUs: cpus}
				p.AddReservation(e)
				flat.addReservation(e)
			case 5: // TruncateReservations, including no-op cuts past the end
				keep := int(a) % (len(flat.resvLog) + 2)
				p.TruncateReservations(keep)
				flat.truncate(keep)
			}
			if p.Reservations() != len(flat.resvLog) {
				t.Fatalf("op %d: journal %d, oracle %d", i/3, p.Reservations(), len(flat.resvLog))
			}
			for _, q := range []float64{now, now + float64(b&0x0f), now + float64(c)} {
				if got, want := p.UsedAt(q), flat.usedAt(q); got != want {
					t.Fatalf("op %d: UsedAt(%v) = %d, oracle %d", i/3, q, got, want)
				}
			}
			if err := checkSkyDexInvariants(&p.dex); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
			if got, want := p.BaseDeltas(), flat.baseDeltas(horizon); got != want {
				t.Fatalf("op %d: BaseDeltas = %d, oracle %d", i/3, got, want)
			}
			cpus := 1 + int(a)%total
			dur := fuzzDur(b)
			from := now + float64(c&0x07)
			want, wantRec := flat.earliestBlocked(cpus, dur, from)
			if got := p.EarliestStart(cpus, dur, from); got != want {
				t.Fatalf("op %d: EarliestStart(%d, %v, %v) = %v, oracle %v", i/3, cpus, dur, from, got, want)
			}
			if lin, _ := linearEarliest(p, cpus, dur, from); lin != want {
				t.Fatalf("op %d: linear sweep EarliestStart(%d, %v, %v) = %v, oracle %v", i/3, cpus, dur, from, lin, want)
			}
			if err := blockedMatches(p, cpus, dur, from, want, wantRec); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
			if got, want := p.CanPlace(cpus, from, dur), flat.canPlace(cpus, from, dur); got != want {
				t.Fatalf("op %d: CanPlace(%d, %v, %v) = %v, oracle %v", i/3, cpus, from, dur, got, want)
			}
		}
	})
}
