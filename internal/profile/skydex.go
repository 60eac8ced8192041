package profile

import "sort"

// The skyline chunk index (skyDex) holds the base tier: the usage
// deltas of running-job occupancies and completion credits, kept totally
// ordered and mutation-friendly. It is a directory of small sorted chunks
// (the relindex.go idiom) where each chunk carries its in-chunk inclusive
// prefix sums and their min/max. A mutation binary-searches the
// directory, edits one chunk and re-aggregates it — O(log chunks +
// chunk). Equal-time deltas coalesce and cancel on contact (an occupancy
// end and its completion credit annihilate immediately instead of
// waiting for a merge), so the live size tracks the running set with no
// deferred compaction. The EarliestStart sweep advances a (chunk, offset,
// prefix) cursor and uses the per-chunk prefix min/max to skip whole
// chunks that provably contain no feasibility crossing, scanning inside a
// chunk only where a crossing or an overlay boundary actually lands.
const (
	// skyChunkMax is the split threshold: a chunk reaching this many
	// deltas is halved.
	skyChunkMax = 256
	// skyChunkMin is the merge threshold: a chunk draining below it is
	// folded into a neighbor when the pair fits.
	skyChunkMin = skyChunkMax / 8
	// skyChunkFill is the target fill of bulk-loaded chunks.
	skyChunkFill = skyChunkMax / 2
	// skyChunkStale caps how many conservative extrema updates a chunk
	// takes before its exact extrema are recomputed (see skyChunk.shift).
	skyChunkStale = 16
)

// skyChunk is one directory entry: a sorted run of deltas with its
// inclusive prefix sums and their extrema. pre[j] is the sum of
// ds[:j+1]; minPre/maxPre bound min/max over pre (exactly after a
// rebuild, conservatively — never tighter than the truth — between
// them), so a chunk entered with absolute prefix P can be skipped by a
// crossing search whenever P+minPre..P+maxPre stays on one side of the
// level.
type skyChunk struct {
	ds     []delta
	pre    []int
	minPre int
	maxPre int
	stale  int // conservative extrema updates since the last exact rebuild
}

// sum returns the chunk's total delta.
func (c *skyChunk) sum() int { return c.pre[len(c.pre)-1] }

// reagg recomputes pre[from:] and the exact extrema after ds[from:]
// changed.
func (c *skyChunk) reagg(from int) {
	run := 0
	if from > 0 {
		run = c.pre[from-1]
	}
	for j := from; j < len(c.ds); j++ {
		run += c.ds[j].d
		c.pre[j] = run
	}
	mn, mx := c.pre[0], c.pre[0]
	for _, v := range c.pre[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	c.minPre, c.maxPre = mn, mx
	c.stale = 0
}

// shift adds dv to pre[k:] — the tail update of a point edit — and
// loosens the extrema conservatively instead of rescanning the whole
// chunk: a one-sided widening by dv plus covering pre[k] itself can
// never claim a tighter range than the truth, which is all a crossing
// search needs to skip safely. After skyChunkStale loose updates the
// exact extrema are recomputed, so the drift (and the spurious in-chunk
// scans it can cause) stays bounded.
func (c *skyChunk) shift(k, dv int) {
	for j := k; j < len(c.pre); j++ {
		c.pre[j] += dv
	}
	c.stale++
	if c.stale >= skyChunkStale {
		c.reagg(len(c.ds))
		return
	}
	if dv > 0 {
		c.maxPre += dv
	} else {
		c.minPre += dv
	}
	if k < len(c.pre) {
		if c.pre[k] > c.maxPre {
			c.maxPre = c.pre[k]
		}
		if c.pre[k] < c.minPre {
			c.minPre = c.pre[k]
		}
	}
}

// skyDex is the chunked ordered skyline index over base usage deltas.
// Every chunk is non-empty with strictly increasing times (equal-time
// deltas coalesce on insert) and the chunks' key ranges are disjoint and
// ascending. The zero value is an empty index.
type skyDex struct {
	chunks []skyChunk
	size   int
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
}

// newChunk pops recycled backings or allocates fresh ones.
func (d *skyDex) newChunk() ([]delta, []int) {
	var ds []delta
	var pre []int
	if n := len(d.spareD); n > 0 {
		ds = d.spareD[n-1]
		d.spareD[n-1] = nil
		d.spareD = d.spareD[:n-1]
	} else {
		ds = make([]delta, 0, skyChunkMax)
	}
	if n := len(d.spareP); n > 0 {
		pre = d.spareP[n-1]
		d.spareP[n-1] = nil
		d.spareP = d.spareP[:n-1]
	} else {
		pre = make([]int, 0, skyChunkMax)
	}
	return ds, pre
}

// load bulk-initializes the index from a time-sorted delta slice,
// merging equal-time runs and dropping zero nets on the way in — the
// release schedule may hold several jobs ending at the same instant,
// and every chunk must keep strictly increasing keys (cross evaluates
// per-entry prefixes, so an intermediate prefix inside an equal-time
// group would masquerade as a zero-width feasibility transition). The
// slice is not retained.
func (d *skyDex) load(ds []delta) {
	d.reset()
	for i := 0; i < len(ds); {
		t := ds[i].t
		dv := 0
		for ; i < len(ds) && ds[i].t == t; i++ {
			dv += ds[i].d
		}
		if dv == 0 {
			continue
		}
		if n := len(d.chunks); n == 0 || len(d.chunks[n-1].ds) >= skyChunkFill {
			cds, cpre := d.newChunk()
			d.chunks = append(d.chunks, skyChunk{ds: cds[:0], pre: cpre[:0]})
		}
		c := &d.chunks[len(d.chunks)-1]
		c.ds = append(c.ds, delta{t: t, d: dv})
		c.pre = append(c.pre, 0)
		d.size++
	}
	for i := range d.chunks {
		d.chunks[i].reagg(0)
	}
}

// findChunk returns the index of the first chunk whose last key is at or
// after t, or len(chunks).
func (d *skyDex) findChunk(t float64) int {
	return sort.Search(len(d.chunks), func(i int) bool {
		ds := d.chunks[i].ds
		return ds[len(ds)-1].t >= t
	})
}

// insert applies a delta of dv at time t, coalescing with an existing
// delta at exactly t (and removing the entry when the result is zero —
// this is how an occupancy end and its completion credit annihilate).
func (d *skyDex) insert(t float64, dv int) {
	if dv == 0 {
		return
	}
	if len(d.chunks) == 0 {
		cds, cpre := d.newChunk()
		c := skyChunk{ds: append(cds, delta{t: t, d: dv}), pre: append(cpre[:0], dv)}
		c.minPre, c.maxPre = dv, dv
		d.chunks = append(d.chunks, c)
		d.size = 1
		return
	}
	ci := d.findChunk(t)
	if ci == len(d.chunks) {
		ci--
	}
	c := &d.chunks[ci]
	k := sort.Search(len(c.ds), func(i int) bool { return c.ds[i].t >= t })
	if k < len(c.ds) && c.ds[k].t == t {
		c.ds[k].d += dv
		if c.ds[k].d == 0 {
			copy(c.ds[k:], c.ds[k+1:])
			c.ds = c.ds[:len(c.ds)-1]
			copy(c.pre[k:], c.pre[k+1:])
			c.pre = c.pre[:len(c.pre)-1]
			d.size--
			switch {
			case len(c.ds) == 0:
				d.dropChunk(ci)
			case len(c.ds) < skyChunkMin:
				c.shift(k, dv)
				d.mergeAt(ci)
			default:
				c.shift(k, dv)
			}
			return
		}
		c.shift(k, dv)
		return
	}
	c.ds = append(c.ds, delta{})
	copy(c.ds[k+1:], c.ds[k:])
	c.ds[k] = delta{t: t, d: dv}
	c.pre = append(c.pre, 0)
	copy(c.pre[k+1:], c.pre[k:])
	if k > 0 {
		c.pre[k] = c.pre[k-1]
	} else {
		c.pre[k] = 0
	}
	c.shift(k, dv)
	d.size++
	if len(c.ds) >= skyChunkMax {
		d.split(ci)
	}
}

// split halves the chunk at ci.
func (d *skyDex) split(ci int) {
	c := &d.chunks[ci]
	mid := len(c.ds) / 2
	rds, rpre := d.newChunk()
	rds = append(rds, c.ds[mid:]...)
	rpre = rpre[:0]
	for range rds {
		rpre = append(rpre, 0)
	}
	right := skyChunk{ds: rds, pre: rpre}
	right.reagg(0)
	c.ds = c.ds[:mid]
	c.pre = c.pre[:mid]
	c.reagg(0)
	d.chunks = append(d.chunks, skyChunk{})
	copy(d.chunks[ci+2:], d.chunks[ci+1:])
	d.chunks[ci+1] = right
}

// dropChunk removes the (empty) directory entry at ci.
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
	lo, hi := into, ci
	if lo > hi {
		lo, hi = hi, lo
	}
	c := &d.chunks[lo]
	c.ds = append(c.ds, d.chunks[hi].ds...)
	for range d.chunks[hi].ds {
		c.pre = append(c.pre, 0)
	}
	c.reagg(0)
	d.dropChunk(hi)
}

// foldTo removes every delta with time at or before h — indistinguishable
// to queries past the horizon — and returns their sum, which the caller
// folds into its base offset. Whole expired chunks drop in O(1) each;
// only the boundary chunk is edited.
func (d *skyDex) foldTo(h float64) int {
	folded := 0
	for len(d.chunks) > 0 {
		c := &d.chunks[0]
		if c.ds[len(c.ds)-1].t <= h {
			folded += c.sum()
			d.size -= len(c.ds)
			d.dropChunk(0)
			continue
		}
		j := sort.Search(len(c.ds), func(i int) bool { return c.ds[i].t > h })
		if j > 0 {
			folded += c.pre[j-1]
			copy(c.ds, c.ds[j:])
			c.ds = c.ds[:len(c.ds)-j]
			c.pre = c.pre[:len(c.pre)-j]
			c.reagg(0)
			d.size -= j
			if len(c.ds) < skyChunkMin {
				d.mergeAt(0)
			}
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
		if c.ds[len(c.ds)-1].t <= from {
			sum += c.sum()
			ci++
			continue
		}
		k = sort.Search(len(c.ds), func(i int) bool { return c.ds[i].t > from })
		if k > 0 {
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

// cross scans forward from position (ci, k) — entered with absolute
// prefix P, the sum of every delta strictly before it — for the first
// delta with time before tLimit whose inclusive prefix crosses level L
// (above: prefix > L; otherwise: prefix <= L). Whole chunks whose prefix
// extrema exclude a crossing are skipped in O(1); a chunk is scanned
// only when its aggregates admit a crossing or tLimit lands inside it
// (the aggregate test is conservative for mid-chunk entries, so a scan
// may come up empty — the cursor still advances, so the total scan work
// of a sweep is bounded by the deltas it traverses).
//
// On a hit it returns the crossing's time and inclusive prefix with the
// cursor advanced one past it. Otherwise found is false and the cursor
// lands on the first delta with time at or after tLimit (or the end),
// with P the prefix before it.
func (d *skyDex) cross(ci, k, P, L int, above bool, tLimit float64) (nci, nk, nP int, t float64, pre int, found bool) {
	for ci < len(d.chunks) {
		c := &d.chunks[ci]
		n := len(c.ds)
		base := P
		if k > 0 {
			base = P - c.pre[k-1]
		}
		bounded := c.ds[n-1].t >= tLimit
		hit := (above && base+c.maxPre > L) || (!above && base+c.minPre <= L)
		if !hit && !bounded {
			P = base + c.pre[n-1]
			ci, k = ci+1, 0
			continue
		}
		if !hit {
			// tLimit lands in this chunk and no crossing precedes it.
			j := k + sort.Search(n-k, func(i int) bool { return c.ds[k+i].t >= tLimit })
			if j > 0 {
				P = base + c.pre[j-1]
			} else {
				P = base
			}
			return ci, j, P, 0, 0, false
		}
		for j := k; j < n; j++ {
			if c.ds[j].t >= tLimit {
				if j > 0 {
					P = base + c.pre[j-1]
				} else {
					P = base
				}
				return ci, j, P, 0, 0, false
			}
			ip := base + c.pre[j]
			if (above && ip > L) || (!above && ip <= L) {
				if j+1 == n {
					return ci + 1, 0, ip, c.ds[j].t, ip, true
				}
				return ci, j + 1, ip, c.ds[j].t, ip, true
			}
		}
		P = base + c.pre[n-1]
		ci, k = ci+1, 0
	}
	return ci, 0, P, 0, 0, false
}
