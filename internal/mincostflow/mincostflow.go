package mincostflow

import (
	"fmt"
	"math"
	"slices"

	"github.com/ebsnlab/geacc/internal/pqueue"
)

// Graph is a flow network under construction. Arcs are stored as
// forward/residual twins: arc i's twin is i^1.
// Binding a Solver indexes the arcs into one forward-star adjacency: v's
// arcs are adj[start[v]:start[v+1]], those into the solver's terminals
// first (up to rest[v]), then the rest, sorted by cost on v's first scan.
type Graph struct {
	numNodes int
	to       []int32
	cap      []int64
	cost     []float64

	start, rest []int32
	adj         []arcRec
	sortBuf     sortScratch
	sorted      []bool
	indexed     bool // adj covers every arc, laid out for terminals adjS, adjT
	adjS, adjT  int
}

// arcRec is one adjacency slot: an arc's cost and head stored next to its
// id, so scans and sorts read one contiguous record per arc and go through
// the id only for the residual capacity, the one field a solve mutates.
type arcRec struct {
	cost float64
	to   int32
	arc  int32
}

// ArcID identifies an arc returned by AddArc.
type ArcID int32

// Grow guarantees storage for n additional forward arcs, reallocating only
// when the current (possibly pooled) capacity falls short.
func (g *Graph) Grow(n int) {
	g.to = slices.Grow(g.to, 2*n)
	g.cap = slices.Grow(g.cap, 2*n)
	g.cost = slices.Grow(g.cost, 2*n)
}

// AddArc adds a directed arc from -> to with the given capacity and per-unit
// cost, returning its id. Capacities must be non-negative and costs finite.
func (g *Graph) AddArc(from, to int, capacity int64, cost float64) ArcID {
	if from < 0 || from >= g.numNodes || to < 0 || to >= g.numNodes {
		panic(fmt.Sprintf("mincostflow: arc (%d -> %d) out of range [0, %d)", from, to, g.numNodes))
	}
	if capacity < 0 {
		panic(fmt.Sprintf("mincostflow: negative capacity %d", capacity))
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		panic(fmt.Sprintf("mincostflow: non-finite cost %v", cost))
	}
	id := ArcID(len(g.to))
	g.to = append(g.to, int32(to), int32(from))
	g.cap = append(g.cap, capacity, 0)
	g.cost = append(g.cost, cost, -cost)
	g.indexed = false
	return id
}

// index builds the forward-star adjacency for searches between s and t,
// unless it is already built for them. Within each of a node's two groups
// the arcs start out newest first; the search sorts the second group.
func (g *Graph) index(s, t int) {
	if g.indexed && g.adjS == s && g.adjT == t {
		return
	}
	n, m := g.numNodes, len(g.to)
	g.start = resize(g.start, n+1)
	g.rest = resize(g.rest, n)
	g.adj = resize(g.adj, m)
	start, rest, adj, to := g.start, g.rest, g.adj, g.to[:m]
	clear(start)
	clear(rest)
	// Count v's arcs into start[v+1] and its terminal arcs into rest[v],
	// then turn both into cursors: start[v] for the terminal group, rest[v]
	// for the other. Arcs come in twin pairs: a runs from u = to[a+1] to
	// w = to[a], and a+1 from w to u.
	s32, t32 := int32(s), int32(t)
	for a := 0; a < m; a += 2 {
		u, w := to[a+1], to[a]
		start[u+1]++
		start[w+1]++
		if w == s32 || w == t32 {
			rest[u]++
		}
		if u == s32 || u == t32 {
			rest[w]++
		}
	}
	for v := range n {
		start[v+1] += start[v]
		rest[v] += start[v]
	}
	// Place the arcs newest first: a+1 into w's list, then a into u's.
	cost := g.cost[:m]
	for a := m - 2; a >= 0; a -= 2 {
		u, w := to[a+1], to[a]
		if r := (arcRec{cost: cost[a+1], to: u, arc: int32(a + 1)}); u == s32 || u == t32 {
			adj[start[w]] = r
			start[w]++
		} else {
			adj[rest[w]] = r
			rest[w]++
		}
		if r := (arcRec{cost: cost[a], to: w, arc: int32(a)}); w == s32 || w == t32 {
			adj[start[u]] = r
			start[u]++
		} else {
			adj[rest[u]] = r
			rest[u]++
		}
	}
	// Each cursor now sits at the end of its group: start[v] at v's
	// boundary, rest[v] at v's end. Shift them into place.
	for v := n - 1; v >= 0; v-- {
		start[v+1], rest[v] = rest[v], start[v]
	}
	start[0] = 0
	g.sorted = resize(g.sorted, n)
	clear(g.sorted)
	g.indexed, g.adjS, g.adjT = true, s, t
}

// sortArcs sorts v's non-terminal arcs by cost, once per index. Equal
// costs keep their newest-first order: the arc ids break the tie.
func (g *Graph) sortArcs(v int) {
	sortRecs(g.adj[g.rest[v]:g.start[v+1]], &g.sortBuf)
	g.sorted[v] = true
}

// Flow returns the amount of flow currently on the arc. Valid after solving.
func (g *Graph) Flow(id ArcID) int64 {
	// Residual capacity accumulated on the twin equals the flow pushed.
	return g.cap[int32(id)^1]
}

// Solver runs SSPA on a graph. A Solver mutates the graph's residual
// capacities; build a fresh Graph (or Solver) per solve.
type Solver struct {
	g    *Graph
	s, t int
	pot  []float64
	dist []float64
	prev []int32 // arc used to reach each node on the current shortest path
	heap *pqueue.IndexedMinHeap

	dirty []bool  // Bellman–Ford scratch: labels fallen since the node's last scan
	stamp []int32 // negative-cycle search scratch: parent-walk stamps

	// potMax is the largest potential of a node other than s and t. fresh
	// reports that advancePotentials has set it and reset dist since the
	// last search, so the next search can skip that per-node pass.
	potMax float64
	fresh  bool

	totalFlow int64

	// Search work since the last Reset/WarmStart; see SearchStats.
	pops, arcScans int64
}

// relaxPotentials lowers pot until pot[w] <= pot[v] + cost(v,w) holds on
// every positive-residual arc: Bellman–Ford from a virtual source joined to
// each node v at distance pot[v]. It reports whether it converged within
// n+1 passes, which it always does absent a negative-cost cycle; seeded
// with nearly valid potentials it takes a pass or two.
//
// A pass skips every node whose potential has not fallen since its last
// scan: each of its arcs would offer the same label as then, against a
// head label that can only have fallen, so none could relax. The passes
// make the same relaxations in the same order as full passes. With known
// set, sv.dirty already marks every node that has an arc violating pot,
// and the first pass scans only those; otherwise it scans every node.
func (sv *Solver) relaxPotentials(known bool) bool {
	n, pot := sv.g.numNodes, sv.pot
	start, adj, capa := sv.g.start, sv.g.adj, sv.g.cap
	sv.dirty = resize(sv.dirty, n)
	dirty := sv.dirty
	if !known {
		for v := range dirty {
			dirty[v] = true
		}
	}
	for iter := 0; iter <= n; iter++ {
		changed := false
		for v := 0; v < n; v++ {
			if !dirty[v] {
				continue
			}
			dirty[v] = false
			for _, r := range adj[start[v]:start[v+1]] {
				if capa[r.arc] <= 0 {
					continue
				}
				if nd := pot[v] + r.cost; nd < pot[r.to] {
					pot[r.to] = nd
					dirty[r.to] = true
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// TotalFlow returns the amount of flow pushed so far.
func (sv *Solver) TotalFlow() int64 { return sv.totalFlow }

// pushAlongPath updates potentials from the last search and pushes up to
// maxUnits along the recorded shortest path, returning the units pushed.
func (sv *Solver) pushAlongPath(maxUnits int64, unitCost float64) int64 {
	g := sv.g
	sv.advancePotentials(sv.t)
	// Bottleneck along the recorded path.
	bottleneck := maxUnits
	for v := sv.t; v != sv.s; {
		a := sv.prev[v]
		if g.cap[a] < bottleneck {
			bottleneck = g.cap[a]
		}
		v = int(g.to[int32(a)^1])
	}
	// Push.
	for v := sv.t; v != sv.s; {
		a := sv.prev[v]
		g.cap[a] -= bottleneck
		g.cap[int32(a)^1] += bottleneck
		v = int(g.to[int32(a)^1])
	}
	sv.totalFlow += bottleneck
	return bottleneck
}

// dijkstra computes reduced-cost shortest paths from s until t is settled.
// It reports whether t is reachable.
func (sv *Solver) dijkstra() bool { return sv.dijkstraFrom(sv.s, sv.t) }

// dijkstraFrom computes reduced-cost shortest paths from src, filling dist
// and prev, and stops as soon as it pops dst: dist is final for every node
// popped so far (all at distance <= dist[dst]) and a tentative upper bound,
// at least dist[dst], for the rest. It reports whether dst is reachable.
// The warm-start retreat phase roots it at the sink; everything else roots
// it at the source.
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
	sv.pops += pops
	sv.arcScans += arcScans
	return dist[dst] != math.MaxFloat64
}

// resetSearch sets every dist to MaxFloat64 and recomputes potMax, for a
// search that no potential update has prepared.
func (sv *Solver) resetSearch() {
	potMax := math.Inf(-1)
	for v := range sv.dist {
		sv.dist[v] = math.MaxFloat64
		if p := sv.pot[v]; p > potMax && v != sv.s && v != sv.t {
			potMax = p
		}
	}
	sv.potMax = potMax
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

// advancePotentials applies the truncated potential update after a search
// that stopped at target: pot[v] += min(dist[v], dist[target]). Nodes the
// search settled advance by their exact distance, every other node by the
// target's, which keeps every residual reduced cost non-negative (DESIGN.md
// gives the proof) including on the arcs the next push reverses. The same
// pass prepares the next search: it resets dist and computes potMax from
// the new potentials.
func (sv *Solver) advancePotentials(target int) {
	dt := sv.dist[target]
	pot := sv.pot[:len(sv.dist)]
	potMax := math.Inf(-1)
	for v, d := range sv.dist {
		p := pot[v] + min(d, dt)
		pot[v] = p
		sv.dist[v] = math.MaxFloat64
		if p > potMax && v != sv.s && v != sv.t {
			potMax = p
		}
	}
	sv.potMax, sv.fresh = potMax, true
}

// SearchStats returns the shortest-path work done since the last Reset or
// WarmStart: heap pops and adjacency-arc scans summed over every search.
func (sv *Solver) SearchStats() (pops, arcScans int64) { return sv.pops, sv.arcScans }

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
	if !sv.dijkstra() {
		return 0, 0, false
	}
	unitCost = sv.dist[sv.t] + sv.pot[sv.t] - sv.pot[sv.s]
	if unitCost >= costBound {
		return 0, unitCost, false
	}
	units = sv.pushAlongPath(maxUnits, unitCost)
	return units, unitCost, true
}
