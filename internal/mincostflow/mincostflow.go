package mincostflow

import (
	"fmt"
	"math"
	"slices"

	"github.com/ebsnlab/geacc/internal/pqueue"
)

// Graph is a flow network under construction. Arcs are stored as
// forward/residual twins: arc i's twin is i^1.
type Graph struct {
	numNodes int
	to       []int32
	next     []int32
	head     []int32
	cap      []int64
	cost     []float64
}

// ArcID identifies an arc returned by AddArc.
type ArcID int32

// NewGraph returns an empty network with n nodes labeled 0..n-1.
func NewGraph(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("mincostflow: non-positive node count %d", n))
	}
	head := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	return &Graph{numNodes: n, head: head}
}

// NumNodes returns the number of nodes in the network.
func (g *Graph) NumNodes() int { return g.numNodes }

// NumArcs returns the number of forward arcs added so far.
func (g *Graph) NumArcs() int { return len(g.to) / 2 }

// Grow guarantees storage for n additional forward arcs, reallocating only
// when the current (possibly pooled) capacity falls short.
func (g *Graph) Grow(n int) {
	g.to = slices.Grow(g.to, 2*n)
	g.next = slices.Grow(g.next, 2*n)
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
	g.pushArc(from, int32(to), capacity, cost)
	g.pushArc(to, int32(from), 0, -cost)
	return id
}

func (g *Graph) pushArc(from int, to int32, capacity int64, cost float64) {
	g.to = append(g.to, to)
	g.next = append(g.next, g.head[from])
	g.head[from] = int32(len(g.to) - 1)
	g.cap = append(g.cap, capacity)
	g.cost = append(g.cost, cost)
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

	totalFlow int64
	totalCost float64

	// Search work since the last Reset/WarmStart; see SearchStats.
	pops, arcScans int64
}

// NewSolver prepares an SSPA run from source s to sink t. If the graph
// contains negative-cost arcs, initial potentials are computed with one
// Bellman–Ford relaxation; otherwise zero potentials are already valid (the
// GEACC reduction has only costs in [0, 1]).
func NewSolver(g *Graph, s, t int) *Solver {
	if s < 0 || s >= g.numNodes || t < 0 || t >= g.numNodes || s == t {
		panic(fmt.Sprintf("mincostflow: invalid terminals s=%d t=%d (n=%d)", s, t, g.numNodes))
	}
	sv := &Solver{}
	sv.Reset(g, s, t)
	return sv
}

// relaxPotentials lowers pot until pot[w] <= pot[v] + cost(v,w) holds on
// every positive-residual arc: Bellman–Ford from a virtual source joined to
// each node v at distance pot[v]. It reports whether it converged within
// n+1 passes, which it always does absent a negative-cost cycle; seeded
// with nearly valid potentials it takes a pass or two.
func (sv *Solver) relaxPotentials() bool {
	g := sv.g
	for iter := 0; iter <= g.numNodes; iter++ {
		changed := false
		for v := 0; v < g.numNodes; v++ {
			for a := g.head[v]; a >= 0; a = g.next[a] {
				if g.cap[a] <= 0 {
					continue
				}
				if nd := sv.pot[v] + g.cost[a]; nd < sv.pot[g.to[a]] {
					sv.pot[g.to[a]] = nd
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

// TotalCost returns the cost of the flow pushed so far.
func (sv *Solver) TotalCost() float64 { return sv.totalCost }

// Augment finds a shortest (minimum-cost) augmenting path in the residual
// network and pushes along it up to maxUnits of flow (capped by the path's
// bottleneck). It returns the units pushed and the per-unit path cost.
// ok is false when the sink is no longer reachable; nothing is pushed then.
//
// Successive calls yield non-decreasing unitCost, and after each call the
// current flow is a minimum-cost flow of amount TotalFlow().
func (sv *Solver) Augment(maxUnits int64) (units int64, unitCost float64, ok bool) {
	if maxUnits <= 0 {
		return 0, 0, false
	}
	if !sv.dijkstra() {
		return 0, 0, false
	}
	// True path cost: reduced distance plus potential difference (computed
	// before the potential update inside pushAlongPath).
	unitCost = sv.dist[sv.t] + sv.pot[sv.t] - sv.pot[sv.s]
	units = sv.pushAlongPath(maxUnits, unitCost)
	return units, unitCost, true
}

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
	sv.totalCost += float64(bottleneck) * unitCost
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
func (sv *Solver) dijkstraFrom(src, dst int) bool {
	g := sv.g
	for i := range sv.dist {
		sv.dist[i] = math.MaxFloat64
		sv.prev[i] = -1
	}
	sv.heap.Reset()
	sv.dist[src] = 0
	sv.heap.Push(src, 0)
	var pops, arcScans int64
	for sv.heap.Len() > 0 {
		// The heap is indexed (Push relaxes an existing key), so every pop
		// carries its node's current distance.
		v, d := sv.heap.Pop()
		pops++
		if v == dst {
			break
		}
		for a := g.head[v]; a >= 0; a = g.next[a] {
			arcScans++
			if g.cap[a] <= 0 {
				continue
			}
			w := int(g.to[a])
			rc := g.cost[a] + sv.pot[v] - sv.pot[w]
			if rc < 0 {
				// Floating-point drift can push a reduced cost epsilon
				// below zero; clamp so Dijkstra's invariant holds.
				rc = 0
			}
			if nd := d + rc; nd < sv.dist[w] {
				sv.dist[w] = nd
				sv.prev[w] = a
				sv.heap.Push(w, nd)
			}
		}
	}
	sv.pops += pops
	sv.arcScans += arcScans
	return sv.dist[dst] != math.MaxFloat64
}

// advancePotentials applies the truncated potential update after a search
// that stopped at target: pot[v] += min(dist[v], dist[target]). Nodes the
// search settled advance by their exact distance, every other node by the
// target's, which keeps every residual reduced cost non-negative (DESIGN.md
// gives the proof) including on the arcs the next push reverses.
func (sv *Solver) advancePotentials(target int) {
	dt := sv.dist[target]
	for v, d := range sv.dist {
		sv.pot[v] += min(d, dt)
	}
}

// SearchStats returns the shortest-path work done since the last Reset or
// WarmStart: heap pops and adjacency-arc scans summed over every search.
func (sv *Solver) SearchStats() (pops, arcScans int64) { return sv.pops, sv.arcScans }

// AugmentBelow is like Augment but pushes only when the shortest augmenting
// path's per-unit cost is strictly below costBound; otherwise it pushes
// nothing and returns ok = false with the cost that was rejected. Because
// successive path costs never decrease, a false return means no further
// augmentation can beat the bound either.
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

// MinCostFlow pushes up to target units of flow at minimum cost, returning
// the flow achieved and its cost. Use target = math.MaxInt64 for min-cost
// max-flow.
func (sv *Solver) MinCostFlow(target int64) (flow int64, cost float64) {
	for sv.totalFlow < target {
		if _, _, ok := sv.Augment(target - sv.totalFlow); !ok {
			break
		}
	}
	return sv.totalFlow, sv.totalCost
}
