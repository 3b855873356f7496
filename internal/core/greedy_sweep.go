package core

import (
	"math"
	"slices"

	"github.com/ebsnlab/geacc/internal/obs"
)

// greedySweepMaxPairs bounds one sweep's working set, 16 bytes a pair
// (32 MiB at 1<<21): the similarity table and bucketed keys of a solve
// over at most this many live events × users, or the band buffer of a
// larger one, whose bands hold at most half as many open pairs
// (sweepBands); a traced band's blocked pairs, each a trace step, come on
// top. A 64 MiB body of tiny vectors can describe 10⁸–10⁹ pairs. Tests
// lower it to reach the bands on small instances.
var greedySweepMaxPairs = 1 << 21

// greedyInitPollPairs is how many pairs a scoring pass scores between
// cancellation polls.
const greedyInitPollPairs = 1 << 14

// sweepInsertionMax is the largest bucket sorted by insertion; bigger ones
// (ties, skewed similarities) go to slices.SortFunc.
const sweepInsertionMax = 24

// sweepRec is one live pair of the bucket being swept.
type sweepRec struct {
	s    float64
	v, u int32
}

// sweepBefore reports whether x comes before y in sweep order (sim desc,
// v asc, u asc), the pop order of the paper's heap H.
func sweepBefore(x, y sweepRec) bool {
	if x.s != y.s {
		return x.s > y.s
	}
	if x.v != y.v {
		return x.v < y.v
	}
	return x.u < y.u
}

// sweeper is the state a sweep carries across buckets and bands: the
// remaining capacities, how many nodes of each side still have some, and
// the counts GreedyOpts reports.
type sweeper struct {
	in           *Instance
	opt          GreedyOptions
	m            *Matching
	capV, capU   []int
	liveV, liveU int
	reached      int64 // records the decision loop visited or collectBand checked, for the cancellation poll
	examined     int64 // steps: pairs decided while both endpoints had capacity
	accepted     int64
}

// decide sorts one bucket's records into sweep order and decides them. A
// pair reached while both endpoints have capacity is one step: accepted
// when it conflicts with none of u's matched events and Feasible holds,
// rejected as "conflict" otherwise, and handed to the Trace hook either
// way. decide polls the context every greedyCtxStride records and reports
// false once it is canceled.
func (s *sweeper) decide(recs []sweepRec) bool {
	sortSweepBucket(recs)
	ctx, trace := s.opt.Ctx, s.opt.Trace
	for _, r := range recs {
		if ctx != nil && s.reached%greedyCtxStride == 0 && ctx.Err() != nil {
			return false
		}
		s.reached++
		v, u := int(r.v), int(r.u)
		if s.capV[v] == 0 || s.capU[u] == 0 {
			continue
		}
		s.examined++
		ok := !s.blocked(v, u)
		if ok {
			s.m.Add(v, u, r.s)
			s.accepted++
			if s.opt.onAccept != nil {
				s.opt.onAccept(v, u)
			}
			if s.capV[v]--; s.capV[v] == 0 {
				s.liveV--
			}
			if s.capU[u]--; s.capU[u] == 0 {
				s.liveU--
			}
		}
		if trace != nil {
			step := TraceStep{V: v, U: u, Sim: r.s, Accepted: ok}
			if !ok {
				step.Reason = "conflict"
			}
			trace(step)
		}
	}
	return true
}

// blocked reports whether (v, u) conflicts with one of u's matched events
// or Feasible refuses it. Both only turn true as the run goes.
func (s *sweeper) blocked(v, u int) bool {
	return conflictsWithMatched(s.in, s.m, v, u) || s.opt.Feasible != nil && !s.opt.Feasible(v, u)
}

// sweepTable is Algorithm 2 as one sorted pass (DESIGN.md, "One sorted
// sweep"), for at most greedySweepMaxPairs live pairs. Under the
// "greedy/init" span sp it scores every live pair once (similarityRow, the
// kernel's contiguous SimBatch) and counting-sorts the positive ones into
// similarity buckets whose key is monotone in sim. Under "greedy/scan" it
// walks the buckets from the top: each bucket drops the pairs with a full
// endpoint and goes to decide. Every rejection is permanent, so it accepts
// exactly what the paper's heap loop accepts, in the same order. On
// cancellation it stops early and leaves m partial.
func (s *sweeper) sweepTable(g *greedyScratch, rec *obs.Recorder, sp *obs.Span) {
	nu := len(s.capU)
	capV, capU := s.capV, s.capU
	ctx := s.opt.Ctx

	g.events = g.events[:0]
	for v, c := range capV {
		if c > 0 {
			g.events = append(g.events, v)
		}
	}
	events := g.events
	if cap(g.sims) < len(events)*nu {
		g.sims = make([]float64, len(events)*nu)
	}
	sims := g.sims[:len(events)*nu]

	// Score: one row per live event. A full user's entries are zeroed, so
	// the passes below test only sim > 0.
	var positive int
	var top float64
	polled := 0
	for a, v := range events {
		if polled += nu; polled >= greedyInitPollPairs {
			polled = 0
			if ctx != nil && ctx.Err() != nil {
				sp.End()
				return
			}
		}
		row := sims[a*nu : (a+1)*nu]
		s.in.similarityRow(v, row)
		if s.liveU < nu {
			for u, c := range capU {
				if c == 0 {
					row[u] = 0
				}
			}
		}
		for _, x := range row {
			if x > 0 {
				positive++
				if x > top {
					top = x
				}
			}
		}
	}

	// Bucket: about eight pairs a bucket; keys land in each bucket in
	// (v, u) order.
	nb := positive/8 + 1
	bucket := newSweepBucketer(0, top, nb)
	bounds := g.bucketBounds(nb)
	for _, x := range sims {
		if x > 0 {
			bounds[bucket.of(x)+1]++
		}
	}
	for b := 1; b <= nb; b++ {
		bounds[b] += bounds[b-1]
	}
	if cap(g.keys) < positive {
		g.keys = make([]uint64, positive)
	}
	keys := g.keys[:positive]
	for a := range events {
		row := sims[a*nu : (a+1)*nu]
		for u, x := range row {
			if x > 0 {
				b := bucket.of(x)
				keys[bounds[b]] = uint64(a)<<32 | uint64(u)
				bounds[b]++
			}
		}
	}
	// The scatter advanced every bound to its bucket's end: bucket b is
	// now keys[bounds[b-1]:bounds[b]], with bounds[-1] = 0.
	sp.End()

	sp = rec.Start("greedy/scan")
	recs := g.recs
	for b := nb - 1; b >= 0 && s.liveV > 0 && s.liveU > 0; b-- {
		lo := int32(0)
		if b > 0 {
			lo = bounds[b-1]
		}
		recs = filterBucket(recs, keys[lo:bounds[b]], events, sims, nu, capV, capU)
		if !s.decide(recs) {
			break
		}
	}
	g.recs = recs
	sp.Annotate("pops", s.examined).Annotate("accepted", s.accepted).End()
}

// sweepBands is the sweep over more than greedySweepMaxPairs live pairs
// (DESIGN.md, "Bands over the pair budget"). Each band is one scoring pass
// (collectBand) that keeps the first k = greedySweepMaxPairs/2 open pairs
// after the previous band in sweep order: live pairs that no conflict or
// Feasible refusal blocks yet. A traced band also holds the blocked pairs
// among them, which decide rejects as trace steps; an untraced one leaves
// them out. The band is bucketed like the table sweep's pairs, and its
// buckets go to decide from the top. Bands continue until one side is
// full or a band comes up short, so the pairs are decided in the table
// sweep's order with the same outcomes. Each band runs under a
// "greedy/band" span.
func (s *sweeper) sweepBands(g *greedyScratch, rec *obs.Recorder, sp *obs.Span) {
	sp.End()
	k := max(greedySweepMaxPairs/2, 1)
	if cap(g.recs) < 2*k {
		g.recs = make([]sweepRec, 0, 2*k)
	}
	if n := max(len(s.capV), len(s.capU)); cap(g.sims) < n {
		g.sims = make([]float64, n)
	}
	var after sweepRec
	for band := 0; s.liveV > 0 && s.liveU > 0; band++ {
		bsp := rec.Start("greedy/band")
		kept, held, ok := s.collectBand(g.recs[:0:2*k], g.held[:0], g.sims, k, after, band > 0)
		g.held = held
		if !ok {
			bsp.End()
			return
		}
		// A full band ends at its last open pair; the next one starts
		// after it, so the blocked pairs past it wait for that band.
		var last sweepRec
		for i, r := range kept {
			if i == 0 || sweepBefore(last, r) {
				last = r
			}
		}
		if len(kept) == k {
			held = keepBefore(held, last)
		}
		n := len(kept) + len(held)
		bsp.Annotate("band", band).Annotate("pairs", n)
		if n == 0 {
			bsp.End()
			return
		}

		// Bucket the band into the buffer's second half, which the kept
		// pairs (at most k) leave free; a traced band's blocked pairs may
		// need it grown.
		if n > k {
			g.recs = slices.Grow(g.recs[:2*k], n-k)
			kept = g.recs[:len(kept)]
		}
		lo, top := math.Inf(1), math.Inf(-1)
		for _, part := range [2][]sweepRec{kept, held} {
			for _, r := range part {
				lo, top = min(lo, r.s), max(top, r.s)
			}
		}
		nb := n/8 + 1
		bucket := newSweepBucketer(lo, top, nb)
		bounds := g.bucketBounds(nb)
		for _, part := range [2][]sweepRec{kept, held} {
			for _, r := range part {
				bounds[bucket.of(r.s)+1]++
			}
		}
		for b := 1; b <= nb; b++ {
			bounds[b] += bounds[b-1]
		}
		sorted := g.recs[k : k+n]
		for _, part := range [2][]sweepRec{kept, held} {
			for _, r := range part {
				b := bucket.of(r.s)
				sorted[bounds[b]] = r
				bounds[b]++
			}
		}
		for b := nb - 1; b >= 0 && s.liveV > 0 && s.liveU > 0; b-- {
			lo := int32(0)
			if b > 0 {
				lo = bounds[b-1]
			}
			if !s.decide(filterLive(sorted[lo:bounds[b]], s.capV, s.capU)) {
				bsp.End()
				return
			}
		}
		bsp.Annotate("pops", s.examined).Annotate("accepted", s.accepted).End()
		if len(kept) < k {
			return // the band held every live pair left
		}
		after = last
	}
}

// collectBand is one pass over the pairs of the live events and users. It
// keeps in buf (capacity 2k) the first k open pairs in sweep order,
// counting only pairs strictly after `after` when skip is set. Whenever buf
// fills, selectFirst keeps its first k and the k-th becomes a cut: later
// pairs are kept only if they come before it, so the cut rises as the pass
// goes and scores each pair once. A pair that conflicts with a matched
// event of its user or that Feasible refuses is blocked: both tests only
// turn true, so decide would reject it. Blocked pairs do not count towards
// k. With a Trace hook they go to held, which the trace needs as steps and
// which drops those past the cut when it runs full; without one they are
// left out. A deep sweep, whose nodes keep capacity while their pairs are
// refused (dense conflicts, spent budgets), so spends its bands on open
// pairs, not one band per k refusals. The pass runs over whichever side
// scores fewer pairs: rows of the live events, or columns of the live
// users. It returns the open and the held pairs unordered, or false on
// cancellation.
func (s *sweeper) collectBand(buf, held []sweepRec, line []float64, k int, after sweepRec, skip bool) ([]sweepRec, []sweepRec, bool) {
	capV, capU := s.capV, s.capU
	nv, nu := len(capV), len(capU)
	byUser := s.liveU*nv < s.liveV*nu
	outer, inner, n := capV, capU, nu
	if byUser {
		outer, inner, n = capU, capV, nv
	}
	line = line[:n]
	ctx, traced := s.opt.Ctx, s.opt.Trace != nil
	var cut sweepRec
	cutSet := false
	polled := 0
	for i, c := range outer {
		if c == 0 {
			continue
		}
		if polled += n; polled >= greedyInitPollPairs {
			polled = 0
			if ctx != nil && ctx.Err() != nil {
				return nil, nil, false
			}
		}
		if byUser {
			s.in.similarityColumn(i, line)
		} else {
			s.in.similarityRow(i, line)
		}
		for j, x := range line {
			if !(x > 0) || inner[j] == 0 {
				continue
			}
			r := sweepRec{s: x, v: int32(i), u: int32(j)}
			if byUser {
				r.v, r.u = r.u, r.v
			}
			if skip && !sweepBefore(after, r) || cutSet && !sweepBefore(r, cut) {
				continue
			}
			// Feasible may be slow or cancel; poll as decide does.
			if ctx != nil && s.reached%greedyCtxStride == 0 && ctx.Err() != nil {
				return nil, nil, false
			}
			s.reached++
			if s.blocked(int(r.v), int(r.u)) {
				if traced {
					if len(held) == cap(held) && cutSet {
						// Drop what the cut passed; grow unless that
						// freed half, so each record is moved O(1) times.
						if held = keepBefore(held, cut); len(held) > cap(held)/2 {
							held = slices.Grow(held, cap(held))
						}
					}
					held = append(held, r)
				}
				continue
			}
			if len(buf) == cap(buf) {
				selectFirst(buf, k)
				buf, cut, cutSet = buf[:k], buf[k-1], true
				if !sweepBefore(r, cut) {
					continue
				}
			}
			buf = append(buf, r)
		}
	}
	if len(buf) > k {
		selectFirst(buf, k)
		buf = buf[:k]
	}
	return buf, held, true
}

// keepBefore compacts recs in place to the records before cut in sweep
// order.
func keepBefore(recs []sweepRec, cut sweepRec) []sweepRec {
	n := 0
	for _, r := range recs {
		if sweepBefore(r, cut) {
			recs[n] = r
			n++
		}
	}
	return recs[:n]
}

// selectFirst reorders recs so that recs[:k] hold the k records that come
// first in sweep order and recs[k-1] is the last of them (Hoare's
// selection with a median-of-three pivot). Records are distinct pairs, so
// the order is strict.
func selectFirst(recs []sweepRec, k int) {
	lo, hi, t := 0, len(recs)-1, k-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if sweepBefore(recs[mid], recs[lo]) {
			recs[mid], recs[lo] = recs[lo], recs[mid]
		}
		if sweepBefore(recs[hi], recs[lo]) {
			recs[hi], recs[lo] = recs[lo], recs[hi]
		}
		if sweepBefore(recs[hi], recs[mid]) {
			recs[hi], recs[mid] = recs[mid], recs[hi]
		}
		p := recs[mid]
		i, j := lo, hi
		for i <= j {
			for sweepBefore(recs[i], p) {
				i++
			}
			for sweepBefore(p, recs[j]) {
				j--
			}
			if i <= j {
				recs[i], recs[j] = recs[j], recs[i]
				i++
				j--
			}
		}
		switch {
		case t <= j:
			hi = j
		case t >= i:
			lo = i
		default:
			return // recs[t] is the pivot, in place
		}
	}
}

// sweepBucketer maps a similarity in [lo, top] to one of nb buckets:
// b(s) = ⌊(s−lo)·nb/(top−lo)⌋ clamped to nb−1. Subtracting a constant,
// multiplying by a positive one and truncating each never reverse an
// order, so b is monotone in s: a higher bucket holds only higher or equal
// similarities.
type sweepBucketer struct {
	lo, scale, last float64
	nb              int
}

// newSweepBucketer covers [lo, top] with nb buckets. When top−lo is zero or
// too narrow to divide, the scale is infinite and every similarity lands
// in the top bucket (the product is +Inf or NaN, never below last).
func newSweepBucketer(lo, top float64, nb int) sweepBucketer {
	return sweepBucketer{lo: lo, scale: float64(nb) / (top - lo), last: float64(nb - 1), nb: nb}
}

func (b sweepBucketer) of(s float64) int {
	if f := (s - b.lo) * b.scale; f < b.last {
		return int(f)
	}
	return b.nb - 1
}

// bucketBounds returns the scratch's bucket bounds for nb buckets, zeroed.
func (g *greedyScratch) bucketBounds(nb int) []int32 {
	if cap(g.buckets) < nb+1 {
		g.buckets = make([]int32, nb+1)
	}
	bounds := g.buckets[:nb+1]
	clear(bounds)
	return bounds
}

// filterBucket returns, in recs' storage, the records of the bucket keys
// whose endpoints both have capacity left, in key order. Most keys of a
// late bucket have a full endpoint, in no pattern a branch predictor can
// follow, so the pass over the keys has no branch on it: it writes each
// key's (a, u) and advances only past live ones. A second pass over the
// survivors alone loads their similarities and event ids.
func filterBucket(recs []sweepRec, keys []uint64, events []int, sims []float64, nu int, capV, capU []int) []sweepRec {
	if cap(recs) < len(keys) {
		recs = make([]sweepRec, len(keys), 2*len(keys))
	}
	recs = recs[:len(keys)]
	n := 0
	for _, k := range keys {
		a, u := int(k>>32), int(uint32(k))
		recs[n] = sweepRec{v: int32(a), u: int32(u)}
		n += max(min(capV[events[a]], capU[u], 1), 0) // 1 when both have room
	}
	recs = recs[:n]
	for i := range recs {
		a := int(recs[i].v)
		recs[i].s = sims[a*nu+int(recs[i].u)]
		recs[i].v = int32(events[a])
	}
	return recs
}

// filterLive compacts recs in place to the records whose endpoints both
// have capacity left, in order, with filterBucket's branch-free step.
func filterLive(recs []sweepRec, capV, capU []int) []sweepRec {
	n := 0
	for _, r := range recs {
		recs[n] = r
		n += max(min(capV[r.v], capU[r.u], 1), 0)
	}
	return recs[:n]
}

// sortSweepBucket orders one bucket's records by (sim desc, v asc, u asc):
// an insertion sort for the small buckets that are the common case.
func sortSweepBucket(recs []sweepRec) {
	if len(recs) > sweepInsertionMax {
		slices.SortFunc(recs, func(x, y sweepRec) int {
			switch {
			case x.s != y.s:
				if x.s > y.s {
					return -1
				}
				return 1
			case x.v != y.v:
				return int(x.v - y.v)
			default:
				return int(x.u - y.u)
			}
		})
		return
	}
	for i := 1; i < len(recs); i++ {
		x, j := recs[i], i
		for ; j > 0 && sweepBefore(x, recs[j-1]); j-- {
			recs[j] = recs[j-1]
		}
		recs[j] = x
	}
}
