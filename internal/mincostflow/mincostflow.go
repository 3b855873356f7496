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
	// scan is AugmentPaths' per-node cursor: -1 while the node is unsettled,
	// then the adjacency index of its next unscanned arc.
	scan []int32
	heap *pqueue.IndexedMinHeap

	// broken and brokenMin are AugmentPaths' certificate: the consumed
	// candidates whose arc into t survives their tree path, and the bound
	// they put on every path through them.
	broken    []brokenSink
	brokenMin float64

	dirty []bool  // Bellman–Ford scratch: labels fallen since the node's last scan
	stamp []int32 // negative-cycle search scratch: parent-walk stamps

	// potMax is the largest potential of a node other than s and t. fresh
	// reports that advancePotentials has set it and reset dist since the
	// last search, so the next search can skip that per-node pass.
	potMax float64
	fresh  bool

	totalFlow int64

	work SearchStats // since the last Reset/WarmStart
}

// SearchStats is a Solver's shortest-path work.
type SearchStats struct {
	Searches int64 // shortest-path searches, forward and reverse
	Paths    int64 // augmenting paths pushed
	Pops     int64 // heap pops: nodes, arc-list tails and sink candidates
	ArcScans int64 // adjacency arcs read
}

// brokenSink is a candidate the search has consumed whose arc into t still
// has residual capacity while its tree path does not: l is the length of
// the path through that arc.
type brokenSink struct {
	node int32
	l    float64
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

// AugmentPaths runs one shortest-path search from s and pushes every
// successive shortest path it can certify, cheapest first, while the
// per-unit cost stays below costBound and until maxUnits units are pushed.
// It returns the units pushed and whether a later call may push more:
// false means the search proved that no augmenting path below costBound
// remains, or that maxUnits was not positive. After each call the flow is
// a minimum-cost flow of amount TotalFlow(). Without exact ties the paths,
// their order and their bottlenecks are those of a one-path-per-search
// SSPA (DESIGN.md, "One search, many paths").
//
// The search is Dijkstra over reduced costs, with t left out of the heap.
// A settled node u with a residual arc into t becomes a candidate, queued
// under the key L(u) = d(u) + rc(u→t); candidates pop in key order between
// the nodes. A candidate's tree path is pushed when every arc on it still
// has residual capacity and L(u) < brokenMin, where brokenMin bounds every
// path through a candidate consumed before (see addBroken). The batch ends
// at the first key that reaches brokenMin, at the first certified
// candidate whose cost reaches costBound, when maxUnits is reached, or
// when the heap runs dry. Potentials then advance by min(d, H), with H the
// key the batch ended at (brokenMin on a dry heap when it is finite), and
// each consumed candidate whose sink arc survives is lifted so that arc
// keeps a non-negative reduced cost.
//
// A popped node scans its cost-sorted arcs only while they can beat the
// next queued key; the rest of the list goes back on the heap, under key
// n+v, with the least label any of it could give.
func (sv *Solver) AugmentPaths(maxUnits int64, costBound float64) (units int64, more bool) {
	if maxUnits <= 0 {
		return 0, false
	}
	if !sv.fresh {
		sv.resetSearch()
	}
	sv.fresh = false
	sv.work.Searches++
	g, h := sv.g, sv.heap
	n, s, t := g.numNodes, sv.s, sv.t
	dist, prev, pot, capa, scan := sv.dist, sv.prev, sv.pot, g.cap, sv.scan
	sv.broken, sv.brokenMin = sv.broken[:0], math.MaxFloat64
	h.Reset()
	dist[s] = 0
	h.Push(s, 0)
	end, last, done := 0.0, 0.0, false
	for h.Len() > 0 {
		key, k := h.Min()
		if k >= sv.brokenMin {
			break
		}
		h.Pop()
		sv.work.Pops++
		last = k
		if key >= n {
			sv.scanArcs(key-n, int(scan[key-n]))
			continue
		}
		u := key
		if scan[u] < 0 {
			sv.settle(u)
			continue
		}
		// u's candidate: no s–t path is shorter than k.
		if k+pot[t]-pot[s] >= costBound {
			end, done = k, true
			break
		}
		a, _ := sv.sinkArc(u)
		bottleneck := min(sv.treeResidual(u, capa[a]), maxUnits-units)
		if bottleneck <= 0 {
			sv.addBroken(u, k, k)
			continue
		}
		capa[a] -= bottleneck
		capa[a^1] += bottleneck
		for v := u; v != s; {
			e := prev[v]
			capa[e] -= bottleneck
			capa[e^1] += bottleneck
			v = int(g.to[e^1])
		}
		units += bottleneck
		sv.totalFlow += bottleneck
		sv.work.Paths++
		if units == maxUnits {
			end, done, more = k, true, true
			break
		}
		if a, l := sv.sinkArc(u); a >= 0 {
			if sv.treeResidual(u, capa[a]) > 0 {
				h.Push(u, l)
			} else {
				sv.addBroken(u, l, k)
			}
		}
	}
	if !done {
		// The heap ran dry or its next key reached brokenMin: only paths
		// through the broken candidates may be left.
		end, more = sv.brokenMin, sv.brokenMin < math.MaxFloat64
		if !more {
			end = last
		}
	}
	if units == 0 {
		// Nothing was pushed, so nothing broke: the search found no path
		// below costBound, and the potentials stay as they were.
		return 0, false
	}
	for _, b := range sv.broken {
		if lift := end - b.l; lift > 0 {
			pot[b.node] += lift
		}
	}
	sv.advancePotentials(end)
	return units, more
}

// settle scans the node v just popped at its final distance: its arcs
// into t make it a candidate under the key of the cheapest, then its
// cost-sorted arcs are scanned from the first.
func (sv *Solver) settle(v int) {
	g := sv.g
	if !g.sorted[v] {
		g.sortArcs(v)
	}
	sv.work.ArcScans += int64(g.rest[v] - g.start[v])
	if a, l := sv.sinkArc(v); a >= 0 {
		sv.heap.Push(v, l)
	}
	sv.scanArcs(v, int(g.rest[v]))
}

// scanArcs relaxes settled v's sorted arcs from adjacency index i while
// one could still beat the next queued key: potMax bounds every head's
// potential, so d(v) + ((c + π(v)) − potMax) is the least label the arc,
// or any after it, can give. Once that passes the heap's minimum the rest
// of the list goes back on the heap under key n+v at that label; a tail
// popped at that key thus always scans its first arc. A label at or above
// brokenMin is not recorded: the batch ends before it pops.
func (sv *Solver) scanArcs(v, i int) {
	g, h := sv.g, sv.heap
	dist, prev, pot, capa, potMax := sv.dist, sv.prev, sv.pot, g.cap, sv.potMax
	d, pv, end := dist[v], pot[v], int(g.start[v+1])
	for ; i < end; i++ {
		r := g.adj[i]
		cpv := r.cost + pv
		if lb := d + (cpv - potMax); h.Len() > 0 {
			if _, top := h.Min(); lb > top {
				sv.scan[v] = int32(i)
				h.Push(g.numNodes+v, lb)
				return
			}
		}
		sv.work.ArcScans++
		if capa[r.arc] <= 0 {
			continue
		}
		w := int(r.to)
		rc := cpv - pot[w]
		if rc < 0 {
			// Floating-point drift can push a reduced cost epsilon below
			// zero; clamp so Dijkstra's invariant holds.
			rc = 0
		}
		if nd := d + rc; nd < dist[w] && nd < sv.brokenMin {
			dist[w] = nd
			prev[w] = r.arc
			h.Push(w, nd)
		}
	}
	sv.scan[v] = int32(end)
}

// sinkArc returns settled v's cheapest residual arc into t and the length
// l = d(v) + rc of the path it ends, or -1 when v has none. Arcs into s and
// t lead v's adjacency; ties go to the first.
func (sv *Solver) sinkArc(v int) (arc int32, l float64) {
	g := sv.g
	arc, l = -1, math.MaxFloat64
	for _, r := range g.adj[g.start[v]:g.rest[v]] {
		if int(r.to) != sv.t || g.cap[r.arc] <= 0 {
			continue
		}
		rc := r.cost + sv.pot[v] - sv.pot[sv.t]
		if c := sv.dist[v] + max(rc, 0); c < l {
			arc, l = r.arc, c
		}
	}
	return arc, l
}

// treeResidual returns the least residual capacity on settled u's tree
// path and c: the bottleneck of the path that continues with an arc of
// residual capacity c into t.
func (sv *Solver) treeResidual(u int, c int64) int64 {
	g := sv.g
	for v := u; v != sv.s; {
		e := sv.prev[v]
		c = min(c, g.cap[e])
		v = int(g.to[e^1])
	}
	return c
}

// addBroken records candidate w, consumed at key k, whose arc into t
// survives its tree path and ends a path of length l. Every other s–w
// path ends with a residual in-arc (y, w), so, measured under potentials
// π + min(d, k), no path through w costs less than l plus the least such
// arc's reduced cost. No later push reaches w, since its tree path is a
// prefix of every path through it; and min(d(y), k) only grows with k, so
// the bound still holds when the batch ends.
func (sv *Solver) addBroken(w int, l, k float64) {
	g := sv.g
	dist, pot := sv.dist, sv.pot
	slack := math.MaxFloat64
	for _, r := range g.adj[g.start[w]:g.start[w+1]] {
		y := int(r.to)
		if y == sv.t || g.cap[r.arc^1] <= 0 {
			continue
		}
		// The in-arc is r's twin, of cost -r.cost.
		rc := pot[y] - r.cost - pot[w]
		slack = min(slack, rc+min(dist[y], k)-dist[w])
	}
	sv.work.ArcScans += int64(g.start[w+1] - g.start[w])
	sv.broken = append(sv.broken, brokenSink{int32(w), l})
	sv.brokenMin = min(sv.brokenMin, l+max(slack, 0))
}

// dijkstraFrom computes reduced-cost shortest paths from src, filling dist
// and prev, and stops as soon as it pops dst: dist is final for every node
// popped so far (all at distance <= dist[dst]) and a tentative upper bound,
// at least dist[dst], for the rest. It reports whether dst is reachable.
// RetreatAbove roots it at the sink and the one-path test oracle at the
// source.
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

// resetSearch sets every dist to MaxFloat64, marks every node unsettled and
// recomputes potMax, for a search that no potential update has prepared.
func (sv *Solver) resetSearch() {
	potMax := math.Inf(-1)
	for v := range sv.dist {
		sv.dist[v] = math.MaxFloat64
		sv.scan[v] = -1
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
// that stopped at key h: pot[v] += min(dist[v], h). Nodes the search
// settled advance by their exact distance, every other node by h, which
// keeps every residual reduced cost non-negative (DESIGN.md gives the
// proof) including on the arcs the pushes reverse. The same pass prepares
// the next search: it resets dist and scan and computes potMax from the
// new potentials.
func (sv *Solver) advancePotentials(h float64) {
	pot := sv.pot[:len(sv.dist)]
	potMax := math.Inf(-1)
	for v, d := range sv.dist {
		p := pot[v] + min(d, h)
		pot[v] = p
		sv.dist[v] = math.MaxFloat64
		sv.scan[v] = -1
		if p > potMax && v != sv.s && v != sv.t {
			potMax = p
		}
	}
	sv.potMax, sv.fresh = potMax, true
}

// SearchStats returns the shortest-path work done since the last Reset or
// WarmStart.
func (sv *Solver) SearchStats() SearchStats { return sv.work }
