package profile

// Stretch is one violated stretch of a feasibility sweep: during
// [From, To) the usage stays above the sweep's level (Total − cpus) by at
// least Excess processors.
type Stretch struct {
	From, To float64
	Excess   int
}

// Blocking is what kept a placement from starting earlier: the violated
// stretches one EarliestStartBlocked sweep crossed on the way to its
// answer, ordered and disjoint, as later credits left them. Replaying
// the sweep's rule over them (Earliest) reproduces the recorded answer.
//
// A scheduler keeping a placement across passes credits its blocking
// with every completion (Credit) and replays it: credits only lower
// usage and the stretches keep a lower bound on their excess, so every
// stretch left is still violated and the replay is a lower bound on a
// fresh sweep's answer. While the replay still returns the recorded
// answer and the window there stays free, a fresh sweep returns it too.
type Blocking []Stretch

// Earliest replays the linear sweep's rule over the stretches from
// `from`: a stretch that holds the candidate, or starts less than dur
// after it (t − cand < dur, EarliestStart's test), moves the candidate
// to its end, and the first stretch starting at least dur after the
// candidate, or running out of stretches, ends the replay. Stretches
// ending at or before `from` are passed over.
func (b Blocking) Earliest(dur, from float64) float64 {
	cand := from
	for _, s := range b {
		if s.To <= cand {
			continue
		}
		if s.From > cand && s.From-cand >= dur {
			break
		}
		cand = s.To
	}
	return cand
}

// Credit hands cpus processors back over [from, to) — a completion at
// pass time `from` freeing the tail of an occupancy that was to end at
// to — and reports whether any excess was lowered. Every stretch
// overlapping the credit loses cpus of its excess; one running past to
// splits there, and the part of any stretch before from is dropped, as
// no later replay starts before the current pass. A stretch whose excess
// is no longer positive is dropped too: credits only lower it further.
// The slice's storage is reused; only a split may grow it.
func (b *Blocking) Credit(cpus int, from, to float64) bool {
	ss := *b
	lo := 0
	for lo < len(ss) && ss[lo].To <= from {
		lo++
	}
	hi := lo
	for hi < len(ss) && ss[hi].From < to {
		hi++
	}
	if hi == lo || to <= from {
		if lo > 0 {
			*b = ss[:copy(ss, ss[lo:])]
		}
		return false
	}
	if ss[hi-1].To > to {
		tail := ss[hi-1]
		tail.From = to
		ss = append(ss, Stretch{})
		copy(ss[hi+1:], ss[hi:])
		ss[hi] = tail
		ss[hi-1].To = to
	}
	w := 0
	for _, s := range ss[lo:hi] {
		s.From = max(s.From, from)
		if s.Excess -= cpus; s.Excess > 0 {
			ss[w] = s
			w++
		}
	}
	if w != hi {
		w += copy(ss[w:], ss[hi:])
	} else {
		w = len(ss)
	}
	*b = ss[:w]
	return true
}
