package mincostflow

import (
	"math"
	"slices"
)

// The one-path-per-search SSPA step that AugmentPaths replaced, kept as
// the oracle its batches are checked against: each call runs one search
// that stops at the sink and pushes one shortest path.

// AugmentBelow finds a shortest (minimum-cost) augmenting path in the
// residual network and, when its per-unit cost is strictly below
// costBound, pushes along it up to maxUnits of flow (capped by the path's
// bottleneck), returning the units pushed and the per-unit cost. Otherwise
// it pushes nothing and returns ok = false with the cost that was rejected
// (0 when the sink is unreachable). Successive path costs never decrease,
// so a false return means no further augmentation can beat the bound
// either, and after each call the current flow is a minimum-cost flow of
// amount TotalFlow(). costBound = math.Inf(1) accepts every path.
func (sv *Solver) AugmentBelow(maxUnits int64, costBound float64) (units int64, unitCost float64, ok bool) {
	if maxUnits <= 0 {
		return 0, 0, false
	}
	if !sv.dijkstraFrom(sv.s, sv.t) {
		return 0, 0, false
	}
	unitCost = sv.dist[sv.t] + sv.pot[sv.t] - sv.pot[sv.s]
	if unitCost >= costBound {
		return 0, unitCost, false
	}
	return sv.pushAlongPath(maxUnits), unitCost, true
}

// pushAlongPath updates potentials from the last search and pushes up to
// maxUnits along the recorded shortest path, returning the units pushed.
func (sv *Solver) pushAlongPath(maxUnits int64) int64 {
	g := sv.g
	sv.advancePotentials(sv.dist[sv.t])
	bottleneck := maxUnits
	for v := sv.t; v != sv.s; {
		a := sv.prev[v]
		bottleneck = min(bottleneck, g.cap[a])
		v = int(g.to[a^1])
	}
	for v := sv.t; v != sv.s; {
		a := sv.prev[v]
		g.cap[a] -= bottleneck
		g.cap[a^1] += bottleneck
		v = int(g.to[a^1])
	}
	sv.totalFlow += bottleneck
	sv.work.Paths++
	return bottleneck
}

// dijkstraFrom computes reduced-cost shortest paths from src, filling dist
// and prev, and stops as soon as it pops dst: dist is final for every node
// popped so far (all at distance <= dist[dst]) and a tentative upper bound,
// at least dist[dst], for the rest. It reports whether dst is reachable.
// The one-path oracle roots it at the source.
//
// The search skips every relaxation that cannot beat the target. bound is
// the length of some path to dst found so far (so bound >= dist[dst]), and
// no node but dst is labeled at or above it. A node's non-terminal arcs
// are sorted by cost and none of their heads has a potential above potMax,
// so once d + ((cost + pot[v]) - potMax) reaches bound, every later arc
// would give a label >= bound too: the scan stops. DESIGN.md, "Bounded
// scan", shows that labels, path and potentials are the full scan's.
//
// dist must read MaxFloat64 everywhere and potMax be current on entry;
// advancePotentials leaves them so, and otherwise resetSearch does it here.
// prev is never cleared: it is read only along the path found, and every
// node on that path was labeled by this search.
func (sv *Solver) dijkstraFrom(src, dst int) bool {
	if !sv.fresh {
		sv.resetSearch()
	}
	sv.fresh = false
	sv.work.Searches++
	g, h := sv.g, sv.heap
	dist, prev, pot, capa, potMax := sv.dist, sv.prev, sv.pot, g.cap, sv.potMax
	h.Reset()
	dist[src] = 0
	h.Push(src, 0)
	bound := math.MaxFloat64
	var pops, arcScans int64
	for h.Len() > 0 {
		// The heap is indexed (Push relaxes an existing key), so every pop
		// carries its node's current distance.
		v, d := h.Pop()
		pops++
		if v == dst {
			break
		}
		if !g.sorted[v] {
			g.sortArcs(v)
		}
		lo := g.start[v]
		recs, nTerm := g.adj[lo:g.start[v+1]], int(g.rest[v]-lo)
		pv := pot[v]
		for i, r := range recs {
			arcScans++
			cpv := r.cost + pv
			if i >= nTerm && d+(cpv-potMax) >= bound {
				break
			}
			if capa[r.arc] <= 0 {
				continue
			}
			w := int(r.to)
			rc := cpv - pot[w]
			if rc < 0 {
				// Floating-point drift can push a reduced cost epsilon
				// below zero; clamp so Dijkstra's invariant holds.
				rc = 0
			}
			if nd := d + rc; nd < dist[w] && (nd < bound || w == dst) {
				dist[w] = nd
				prev[w] = r.arc
				h.Push(w, nd)
				bound = min(bound, sv.pathBound(w, nd, dst))
			}
		}
	}
	sv.work.Pops += pops
	sv.work.ArcScans += arcScans
	return dist[dst] != math.MaxFloat64
}

// pathBound returns the length of the cheapest path to dst that ends with
// w (just labeled nd) and at most one residual arc into dst, or MaxFloat64
// when w has no such arc. Arcs into dst lead w's adjacency.
func (sv *Solver) pathBound(w int, nd float64, dst int) float64 {
	if w == dst {
		return nd
	}
	g := sv.g
	best := math.MaxFloat64
	for _, r := range g.adj[g.start[w]:g.rest[w]] {
		if int(r.to) != dst || g.cap[r.arc] <= 0 {
			continue
		}
		rc := r.cost + sv.pot[w] - sv.pot[dst]
		best = min(best, nd+max(rc, 0))
	}
	return best
}

// Potentials returns a copy of the solver's node potentials.
func (sv *Solver) Potentials() []float64 { return slices.Clone(sv.pot) }
