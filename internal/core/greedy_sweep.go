package core

import (
	"slices"

	"github.com/ebsnlab/geacc/internal/obs"
)

// greedySweepMaxPairs bounds the similarity table of one sweep (live
// events × users, 16 bytes a pair with its bucketed key: 32 MiB at 1<<21).
// A larger solve runs the heap loop, whose working set grows with the
// pairs it touches rather than with every pair; a 64 MiB body of tiny
// vectors can describe 10⁸–10⁹ pairs. Tests lower it to reach the
// fallback on small instances.
var greedySweepMaxPairs = 1 << 21

// greedyInitPollPairs is how many pairs the sweep scores between
// cancellation polls, the stride of the heap loop's primed initialization.
const greedyInitPollPairs = 1 << 14

// sweepInsertionMax is the largest bucket sorted by insertion; bigger ones
// (ties, skewed similarities) go to slices.SortFunc.
const sweepInsertionMax = 24

// sweepRec is one live pair of the bucket being swept.
type sweepRec struct {
	s    float64
	v, u int32
}

// sweepGreedy is Algorithm 2 as one sorted pass (DESIGN.md, "One sorted
// sweep"). Under the "greedy/init" span sp it scores every live pair once
// (similarityRow, the kernel's contiguous SimBatch) and counting-sorts the
// positive ones into similarity buckets whose key is monotone in sim.
// Under "greedy/scan" it walks the buckets from the top: each bucket drops
// the pairs with a full endpoint, sorts the rest by (sim desc, v asc, u
// asc) — the heap loop's pop order — and accepts a pair while both
// capacities remain, it conflicts with none of u's matched events and
// Feasible holds. Every rejection is permanent, so it accepts exactly what
// heapGreedy accepts, in the same order. It returns the pairs it examined
// and accepted; on cancellation it stops early and leaves m partial.
func sweepGreedy(in *Instance, opt GreedyOptions, g *greedyScratch, m *Matching, rec *obs.Recorder, sp *obs.Span) (examined, accepted int64) {
	nv, nu := in.NumEvents(), in.NumUsers()
	capV, capU := g.capV, g.capU
	ctx := opt.Ctx

	g.events = g.events[:0]
	for v := 0; v < nv; v++ {
		if capV[v] > 0 {
			g.events = append(g.events, v)
		}
	}
	events := g.events
	if cap(g.sims) < len(events)*nu {
		g.sims = make([]float64, len(events)*nu)
	}
	sims := g.sims[:len(events)*nu]

	liveU := 0
	for _, c := range capU {
		if c > 0 {
			liveU++
		}
	}

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
				return 0, 0
			}
		}
		row := sims[a*nu : (a+1)*nu]
		in.similarityRow(v, row)
		if liveU < nu {
			for u, c := range capU {
				if c == 0 {
					row[u] = 0
				}
			}
		}
		for _, s := range row {
			if s > 0 {
				positive++
				if s > top {
					top = s
				}
			}
		}
	}

	// Bucket: b(s) = ⌊s·nb/top⌋ clamped to nb−1 is monotone in s
	// (multiplying by a positive constant and truncating never reverses an
	// order), so a higher bucket holds only higher or equal similarities.
	// About eight pairs a bucket; keys land in each bucket in (v, u) order.
	nb := positive/8 + 1
	if cap(g.buckets) < nb+1 {
		g.buckets = make([]int32, nb+1)
	}
	bounds := g.buckets[:nb+1]
	clear(bounds)
	scale, last := float64(nb)/top, float64(nb-1)
	bucket := func(s float64) int {
		if f := s * scale; f < last {
			return int(f)
		}
		return nb - 1
	}
	for _, s := range sims {
		if s > 0 {
			bounds[bucket(s)+1]++
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
		for u, s := range row {
			if s > 0 {
				b := bucket(s)
				keys[bounds[b]] = uint64(a)<<32 | uint64(u)
				bounds[b]++
			}
		}
	}
	// The scatter advanced every bound to its bucket's end: bucket b is
	// now keys[bounds[b-1]:bounds[b]], with bounds[-1] = 0.
	sp.End()

	sp = rec.Start("greedy/scan")
	liveV := len(events)
	recs := g.recs
sweep:
	for b := nb - 1; b >= 0 && liveV > 0 && liveU > 0; b-- {
		lo := int32(0)
		if b > 0 {
			lo = bounds[b-1]
		}
		recs = filterBucket(recs, keys[lo:bounds[b]], events, sims, nu, capV, capU)
		sortSweepBucket(recs)
		for _, r := range recs {
			if ctx != nil && examined%greedyCtxStride == 0 && ctx.Err() != nil {
				break sweep
			}
			examined++
			v, u := int(r.v), int(r.u)
			if capV[v] == 0 || capU[u] == 0 || conflictsWithMatched(in, m, v, u) ||
				(opt.Feasible != nil && !opt.Feasible(v, u)) {
				continue
			}
			m.Add(v, u, r.s)
			accepted++
			if capV[v]--; capV[v] == 0 {
				liveV--
			}
			if capU[u]--; capU[u] == 0 {
				liveU--
			}
		}
	}
	g.recs = recs
	sp.Annotate("pops", examined).Annotate("accepted", accepted).End()
	return examined, accepted
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

// sortSweepBucket orders one bucket's records by (sim desc, v asc, u asc).
// The scatter leaves them in (v, u) order, so a stable insertion by sim
// alone suffices for the small buckets that are the common case.
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
		for ; j > 0 && recs[j-1].s < x.s; j-- {
			recs[j] = recs[j-1]
		}
		recs[j] = x
	}
}
