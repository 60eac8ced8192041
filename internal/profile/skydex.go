package profile

import (
	"math"
	"sort"
)

// The skyline chunk index (skyDex) holds the whole profile: the usage
// deltas of running-job occupancies, completion credits and reservations,
// kept totally ordered and mutation-friendly in one directory of small
// sorted chunks (the relindex.go idiom). Each chunk carries its in-chunk
// inclusive prefix sums and their min/max. A mutation binary-searches the
// directory and edits one chunk, O(log chunks + chunk); the chunk's
// prefix sums and extrema are recomputed lazily by the next reader that
// needs them, so a truncation dropping a whole reservation suffix pays
// one recompute per touched chunk rather than one per delta. Equal-time
// deltas coalesce and cancel on contact (an occupancy end and its
// completion credit annihilate immediately instead of waiting for a
// merge), so the live size tracks the running and planned jobs with no
// deferred compaction. The EarliestStart sweep advances a (chunk, offset,
// prefix) cursor and uses the per-chunk prefix min/max to skip whole
// chunks that contain no feasibility crossing, scanning inside a chunk
// only where a crossing or the window's end actually lands. The same
// sweep can record the violated stretches it crosses (Blocking).
const (
	// skyChunkMax is the split threshold: a chunk reaching this many
	// deltas is halved.
	skyChunkMax = 64
	// skyChunkMin is the merge threshold: a chunk draining below it is
	// folded into a neighbor when the pair fits.
	skyChunkMin = skyChunkMax / 8
	// skyChunkFill is the target fill of bulk-loaded chunks.
	skyChunkFill = skyChunkMax / 2
)

// fresh marks a chunk whose prefix sums and extrema are current.
const fresh = math.MaxInt

// skyChunk is one directory entry: a sorted run of deltas with its
// inclusive prefix sums and their extrema. pre[j] is the sum of
// ds[:j+1]; pre[stale:] and minPre/maxPre are out of date until
// current brings them up to date, which a reader calls first. A chunk
// entered with absolute prefix P can then be skipped by a crossing
// search whenever P+minPre..P+maxPre stays on one side of the level.
type skyChunk struct {
	ds     []delta
	pre    []int
	minPre int
	maxPre int
	sum    int     // Σ ds.d, kept current on every edit
	last   float64 // ds[len(ds)-1].t, kept current on every edit
	stale  int     // first out-of-date prefix, or fresh
}

// touch records that the deltas from position k on changed.
func (c *skyChunk) touch(k int) {
	if k < c.stale {
		c.stale = k
	}
}

// current brings the prefix sums and extrema up to date. It is small
// enough to inline, so an up-to-date chunk costs its readers one compare.
func (c *skyChunk) current() {
	if c.stale != fresh {
		c.refresh()
	}
}

// refresh recomputes the out-of-date prefix sums and the extrema.
func (c *skyChunk) refresh() {
	from := min(c.stale, len(c.ds))
	mn, mx, run := math.MaxInt, math.MinInt, 0
	for _, v := range c.pre[:from] {
		mn, mx = min(mn, v), max(mx, v)
	}
	if from > 0 {
		run = c.pre[from-1]
	}
	for j := from; j < len(c.ds); j++ {
		run += c.ds[j].d
		c.pre[j] = run
		mn, mx = min(mn, run), max(mx, run)
	}
	c.minPre, c.maxPre = mn, mx
	c.stale = fresh
}

// skyDex is the chunked ordered skyline index over usage deltas. Every
// chunk is non-empty with strictly increasing times (equal-time deltas
// coalesce on insert) and the chunks' key ranges are disjoint and
// ascending. An entry stays while its delta or its base part is nonzero:
// bases counts the entries with a nonzero base part, the base skyline's
// own delta count however reservations coalesce with it. The zero value
// is an empty index.
type skyDex struct {
	chunks []skyChunk
	size   int
	bases  int
	spareD [][]delta
	spareP [][]int
}

// len returns the number of live deltas.
func (d *skyDex) len() int { return d.size }

// reset empties the index, recycling chunk backings.
func (d *skyDex) reset() {
	for i := range d.chunks {
		d.spareD = append(d.spareD, d.chunks[i].ds[:0])
		d.spareP = append(d.spareP, d.chunks[i].pre[:0])
		d.chunks[i] = skyChunk{}
	}
	d.chunks = d.chunks[:0]
	d.size = 0
	d.bases = 0
}

// newChunk returns an empty, out-of-date chunk on recycled backings or
// fresh ones.
func (d *skyDex) newChunk() skyChunk {
	var c skyChunk // stale 0: out of date until filled and refreshed
	if n := len(d.spareD); n > 0 {
		c.ds = d.spareD[n-1]
		d.spareD[n-1] = nil
		d.spareD = d.spareD[:n-1]
	} else {
		c.ds = make([]delta, 0, skyChunkMax)
	}
	if n := len(d.spareP); n > 0 {
		c.pre = d.spareP[n-1]
		d.spareP[n-1] = nil
		d.spareP = d.spareP[:n-1]
	} else {
		c.pre = make([]int, 0, skyChunkMax)
	}
	return c
}

// load bulk-initializes the index with the base deltas of a time-sorted
// slice, merging equal-time runs and dropping zero nets on the way in —
// the release schedule may hold several jobs ending at the same instant,
// and every chunk must keep strictly increasing keys (rise and drop evaluate
// per-entry prefixes, so an intermediate prefix inside an equal-time
// group would masquerade as a zero-width feasibility transition). The
// merge runs in place over ds, which is not retained; the chunks' prefix
// sums are left for their first reader.
func (d *skyDex) load(ds []delta) {
	d.reset()
	w := 0
	for i := 0; i < len(ds); {
		t, dv := ds[i].t, 0
		for ; i < len(ds) && ds[i].t == t; i++ {
			dv += ds[i].d
		}
		if dv != 0 {
			ds[w] = delta{t: t, d: dv, b: dv}
			w++
		}
	}
	d.size, d.bases = w, w
	for ds = ds[:w]; len(ds) > 0; {
		m := min(len(ds), skyChunkFill)
		c := d.newChunk()
		c.ds = append(c.ds, ds[:m]...)
		c.pre = c.pre[:m]
		for _, dd := range ds[:m] {
			c.sum += dd.d
		}
		c.last = ds[m-1].t
		d.chunks = append(d.chunks, c)
		ds = ds[m:]
	}
}

// findChunk returns the index of the first chunk whose last key is at or
// after t, or len(chunks).
func (d *skyDex) findChunk(t float64) int {
	return sort.Search(len(d.chunks), func(i int) bool { return d.chunks[i].last >= t })
}

// insert applies a delta of dv at time t, db of it base usage (dv for a
// running job's occupancy or credit, 0 for a reservation). It coalesces
// with an existing entry at exactly t and removes the entry when both its
// delta and its base part reach zero — this is how an occupancy end and
// its completion credit annihilate.
func (d *skyDex) insert(t float64, dv, db int) {
	if dv == 0 {
		return
	}
	ci := 0
	if len(d.chunks) == 0 {
		d.chunks = append(d.chunks, d.newChunk())
	} else if ci = d.findChunk(t); ci == len(d.chunks) {
		ci--
	}
	c := &d.chunks[ci]
	k := sort.Search(len(c.ds), func(i int) bool { return c.ds[i].t >= t })
	c.sum += dv
	c.touch(k)
	if k < len(c.ds) && c.ds[k].t == t {
		e := &c.ds[k]
		wasBase := e.b != 0
		e.d += dv
		e.b += db
		if isBase := e.b != 0; isBase != wasBase {
			if isBase {
				d.bases++
			} else {
				d.bases--
			}
		}
		if e.d != 0 || e.b != 0 {
			return
		}
		copy(c.ds[k:], c.ds[k+1:])
		c.ds = c.ds[:len(c.ds)-1]
		c.pre = c.pre[:len(c.pre)-1]
		d.size--
		if k == len(c.ds) && k > 0 {
			c.last = c.ds[k-1].t
		}
		switch {
		case len(c.ds) == 0:
			d.dropChunk(ci)
		case len(c.ds) < skyChunkMin:
			d.mergeAt(ci)
		}
		return
	}
	if k == len(c.ds) {
		c.last = t
	}
	c.ds = append(c.ds, delta{})
	copy(c.ds[k+1:], c.ds[k:])
	c.ds[k] = delta{t: t, d: dv, b: db}
	c.pre = append(c.pre, 0)
	d.size++
	if db != 0 {
		d.bases++
	}
	if len(c.ds) >= skyChunkMax {
		d.split(ci)
	}
}

// split halves the chunk at ci.
func (d *skyDex) split(ci int) {
	right := d.newChunk()
	c := &d.chunks[ci]
	mid := len(c.ds) / 2
	right.ds = append(right.ds, c.ds[mid:]...)
	right.pre = append(right.pre, c.pre[mid:]...)
	for _, dd := range right.ds {
		right.sum += dd.d
	}
	right.last = c.last
	c.last = c.ds[mid-1].t
	c.ds = c.ds[:mid]
	c.pre = c.pre[:mid]
	c.sum -= right.sum
	c.touch(mid)
	d.chunks = append(d.chunks, skyChunk{})
	copy(d.chunks[ci+2:], d.chunks[ci+1:])
	d.chunks[ci+1] = right
}

// dropChunk removes the directory entry at ci; its deltas must already
// be accounted for.
func (d *skyDex) dropChunk(ci int) {
	d.spareD = append(d.spareD, d.chunks[ci].ds[:0])
	d.spareP = append(d.spareP, d.chunks[ci].pre[:0])
	copy(d.chunks[ci:], d.chunks[ci+1:])
	d.chunks[len(d.chunks)-1] = skyChunk{}
	d.chunks = d.chunks[:len(d.chunks)-1]
}

// mergeAt folds the underfull chunk at ci into its smaller neighbor when
// the combined chunk stays clear of the split threshold.
func (d *skyDex) mergeAt(ci int) {
	into := -1
	if ci > 0 {
		into = ci - 1
	}
	if ci+1 < len(d.chunks) && (into < 0 || len(d.chunks[ci+1].ds) < len(d.chunks[into].ds)) {
		into = ci + 1
	}
	if into < 0 || len(d.chunks[ci].ds)+len(d.chunks[into].ds) > 3*skyChunkMax/4 {
		return
	}
	lo, hi := min(ci, into), max(ci, into)
	c, h := &d.chunks[lo], &d.chunks[hi]
	c.touch(len(c.ds))
	c.ds = append(c.ds, h.ds...)
	c.pre = append(c.pre, h.pre...)
	c.sum += h.sum
	c.last = h.last
	d.dropChunk(hi)
}

// foldTo removes every delta with time at or before h — indistinguishable
// to queries past the horizon — and returns their sum, which the caller
// folds into its offset. Whole expired chunks drop in O(1) plus a count
// of their base entries; only the boundary chunk is edited.
func (d *skyDex) foldTo(h float64) int {
	folded := 0
	for len(d.chunks) > 0 {
		c := &d.chunks[0]
		j := len(c.ds)
		if c.last > h {
			j = sort.Search(len(c.ds), func(i int) bool { return c.ds[i].t > h })
			if j == 0 {
				break
			}
		}
		part := 0
		for _, dd := range c.ds[:j] {
			part += dd.d
			if dd.b != 0 {
				d.bases--
			}
		}
		folded += part
		d.size -= j
		if j == len(c.ds) {
			d.dropChunk(0)
			continue
		}
		copy(c.ds, c.ds[j:])
		c.ds = c.ds[:len(c.ds)-j]
		c.pre = c.pre[:len(c.pre)-j]
		c.sum -= part
		c.stale = 0
		if len(c.ds) < skyChunkMin {
			d.mergeAt(0)
		}
		break
	}
	return folded
}

// seek positions a cursor at the first delta with time strictly after
// `from`, returning its (chunk, offset) position and the sum of every
// delta at or before `from`.
func (d *skyDex) seek(from float64) (ci, k, sum int) {
	for ci < len(d.chunks) {
		c := &d.chunks[ci]
		if c.last <= from {
			sum += c.sum
			ci++
			continue
		}
		k = sort.Search(len(c.ds), func(i int) bool { return c.ds[i].t > from })
		if k > 0 {
			c.current()
			sum += c.pre[k-1]
		}
		return ci, k, sum
	}
	return ci, 0, sum
}

// sumAt returns the sum of every delta at or before t — the point query
// behind UsedAt.
func (d *skyDex) sumAt(t float64) int {
	_, _, sum := d.seek(t)
	return sum
}

// earliest is the feasibility sweep behind EarliestStart: from the
// cursor (ci, k) with prefix P — the usage at `from` — it returns the
// earliest time at or after `from` at which the prefix stays at or below
// L for dur seconds, or +Inf when it never again does. It alternates two
// searches: a violated stretch ends at the first prefix at or below L
// (drop), which becomes the candidate; a feasible one is searched for a
// rise above L only up to the window's end cand+dur. A delta time at or
// beyond the rounded cand+dur can still sit less than dur after cand in
// floating point, so when the delta the bounded search stops at fails
// t-cand >= dur the search resumes unbounded; the answer is then exactly
// the plain merge sweep's (linearSweep), which the profile tests hold it
// to. A non-nil rec receives every violated stretch the sweep crosses on
// the way to its answer, in order, each with drop's lower bound on its
// excess over L; a stretch the sweep starts inside begins at `from`.
func (d *skyDex) earliest(ci, k, P, L int, dur, from float64, rec *Blocking) float64 {
	inf := math.Inf(1)
	cand, rose := from, from
	for {
		var t float64
		var found bool
		if P > L {
			var low int
			ci, k, P, t, low, found = d.drop(ci, k, P, L)
			if !found {
				return inf
			}
			if rec != nil {
				*rec = append(*rec, Stretch{From: rose, To: t, Excess: low - L})
			}
			cand = t
			continue
		}
		ci, k, P, t, found = d.rise(ci, k, P, L, cand+dur)
		if !found {
			if ci == len(d.chunks) || d.chunks[ci].ds[k].t-cand >= dur {
				return cand
			}
			ci, k, P, t, found = d.rise(ci, k, P, L, inf)
			if !found {
				return cand
			}
		}
		if t-cand >= dur {
			return cand
		}
		rose = t
	}
}

// rise scans forward from position (ci, k) — entered with absolute
// prefix P, the sum of every delta strictly before it — for the first
// delta with time before tLimit whose inclusive prefix rises above level
// L. Whole chunks whose prefix maximum stays at or below L are skipped
// in O(1); a chunk is scanned only when its maximum admits a rise or
// tLimit lands inside it (the aggregate test is conservative for
// mid-chunk entries, so a scan may come up empty — the cursor still
// advances, so the total scan work of a sweep is bounded by the deltas
// it traverses).
//
// On a hit it returns the rise's time with P its inclusive prefix and
// the cursor one past it. Otherwise found is false and the cursor lands
// on the first delta with time at or after tLimit (or the end), with P
// the prefix before it. A returned cursor is normalized: ci <
// len(chunks) implies k < len(chunks[ci].ds).
func (d *skyDex) rise(ci, k, P, L int, tLimit float64) (nci, nk, nP int, t float64, found bool) {
	cs := d.chunks
	for ci < len(cs) {
		if k == 0 {
			// Fast path from a chunk boundary: walk the headers of fresh
			// chunks wholly before tLimit that stay at or below L.
			for ci < len(cs) && cs[ci].stale == fresh && cs[ci].last < tLimit && P+cs[ci].maxPre <= L {
				P += cs[ci].sum
				ci++
			}
			if ci == len(cs) {
				break
			}
		}
		c := &cs[ci]
		bounded := c.last >= tLimit
		if bounded && c.ds[k].t >= tLimit {
			return ci, k, P, 0, false // the common bounded stop; no prefix needed
		}
		c.current()
		n := len(c.ds)
		base := P
		if k > 0 {
			base = P - c.pre[k-1]
		}
		if base+c.maxPre > L {
			// A rise may lie in this chunk: scan for it, stopping at
			// tLimit in the chunk it lands in.
			j := k
			if bounded {
				for j < n && c.ds[j].t < tLimit && base+c.pre[j] <= L {
					j++
				}
			} else {
				for j < n && base+c.pre[j] <= L {
					j++
				}
			}
			if j < n {
				if c.ds[j].t >= tLimit {
					return ci, j, base + c.pre[j-1], 0, false
				}
				if j+1 == n {
					return ci + 1, 0, base + c.pre[j], c.ds[j].t, true
				}
				return ci, j + 1, base + c.pre[j], c.ds[j].t, true
			}
		} else if bounded {
			// tLimit lands in this chunk past ds[k], and no rise precedes
			// it.
			j := k + sort.Search(n-k, func(i int) bool { return c.ds[k+i].t >= tLimit })
			return ci, j, base + c.pre[j-1], 0, false
		}
		P = base + c.sum
		ci, k = ci+1, 0
	}
	return ci, 0, P, 0, false
}

// drop is rise's counterpart over a violated stretch: entered at (ci, k)
// with prefix P > L, it scans forward without a time limit for the first
// delta whose inclusive prefix is at or below L, skipping whole chunks
// whose prefix minimum stays above it. On a hit it returns the drop's
// time with P its inclusive prefix and the cursor one past it (found is
// false only past the last delta). low is a lower bound on every prefix
// of the stretch, P included: exact over the deltas drop scans, a
// chunk's prefix minimum over one it skips (entered mid-chunk, that
// minimum also covers deltas before the entry, so it only bounds).
func (d *skyDex) drop(ci, k, P, L int) (nci, nk, nP int, t float64, low int, found bool) {
	cs := d.chunks
	low = P
	for ci < len(cs) {
		if k == 0 {
			for ci < len(cs) && cs[ci].stale == fresh && P+cs[ci].minPre > L {
				low = min(low, P+cs[ci].minPre)
				P += cs[ci].sum
				ci++
			}
			if ci == len(cs) {
				break
			}
		}
		c := &cs[ci]
		c.current()
		n := len(c.ds)
		base := P
		if k > 0 {
			base = P - c.pre[k-1]
		}
		if base+c.minPre <= L {
			j := k
			for j < n && base+c.pre[j] > L {
				low = min(low, base+c.pre[j])
				j++
			}
			if j < n {
				if j+1 == n {
					return ci + 1, 0, base + c.pre[j], c.ds[j].t, low, true
				}
				return ci, j + 1, base + c.pre[j], c.ds[j].t, low, true
			}
		} else {
			low = min(low, base+c.minPre)
		}
		P = base + c.sum
		ci, k = ci+1, 0
	}
	return ci, 0, P, 0, low, false
}
