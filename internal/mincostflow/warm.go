package mincostflow

import "math"

// Warm-started SSPA. A dirty-component rebalance re-solves a network that
// differs from the previous solve by a handful of arcs. Instead of starting
// from zero flow and zero potentials, the caller rebuilds the (slightly
// changed) network, force-restores the surviving flow units with PushFlow,
// and calls WarmStart: it repairs optimality (the delta may have created
// negative-cost residual cycles through the restored flow), recovers valid
// node potentials seeded from the previous solve, and leaves the Solver
// ready for the usual AugmentPaths loop — which now only has the
// delta's marginal units left to push instead of the whole flow.
//
// RetreatAbove is the reverse move: when a delta removed capacity or made
// restored units unprofitable under the caller's stopping rule, it pops
// single units back from sink to source along cheapest residual paths.

// PushFlow forces units of flow onto the arc if its residual capacity
// allows, returning whether the push happened. This bypasses path search
// entirely — it is the restore primitive for warm starts and may leave the
// flow non-optimal until WarmStart repairs it.
func (g *Graph) PushFlow(id ArcID, units int64) bool {
	a := int32(id)
	if units <= 0 || int(a) < 0 || int(a) >= len(g.cap) {
		return false
	}
	if g.cap[a] < units {
		return false
	}
	g.cap[a] -= units
	g.cap[a^1] += units
	return true
}

// Residual returns the arc's remaining (unused) capacity. Callers restoring
// flow use it to check all three arcs of a unit path before pushing.
func (g *Graph) Residual(id ArcID) int64 { return g.cap[int32(id)] }

// ClearFlow removes all flow from the network, returning every forward arc
// to its original capacity. It is the cold-fallback escape hatch when a
// warm start cannot be repaired.
func (g *Graph) ClearFlow() {
	for a := 0; a+1 < len(g.cap); a += 2 {
		g.cap[a] += g.cap[a+1]
		g.cap[a+1] = 0
	}
}

// Potentials copies the solver's current node potentials into out,
// reallocating it only when its capacity falls short, and returns out
// resized to the node count. Valid after a solve; feed it to a later
// WarmStart on a related network.
func (sv *Solver) Potentials(out []float64) []float64 {
	out = resize(out, len(sv.pot))
	copy(out, sv.pot)
	return out
}

// WarmStats reports what a WarmStart did.
type WarmStats struct {
	RestoredFlow   int64 // flow units found on the network at start
	CyclesCanceled int   // negative residual cycles repaired
	Passes         int   // Bellman–Ford passes of the negative-cycle searches
	OK             bool  // false: caller must ClearFlow + Reset and go cold
}

// WarmStart prepares the Solver for an SSPA run on a network that already
// carries flow (restored via PushFlow). It
//
//  1. cancels any negative-cost residual cycles the restored flow forms
//     with the delta's new arcs, re-establishing that the current flow is a
//     minimum-cost flow of its amount;
//  2. recomputes TotalFlow from the arc flows; and
//  3. recovers valid node potentials (all residual reduced costs
//     non-negative) by Bellman-Ford relaxation seeded from prevPot — nodes
//     beyond len(prevPot) start at zero. Seeding from the previous solve's
//     potentials makes the relaxation converge in a pass or two on small
//     deltas instead of the cold pass over the whole network.
//
// On success the Solver behaves exactly as if AugmentPaths had pushed the
// restored flow itself: later AugmentPaths calls push non-decreasing unit
// costs and reach bit-exact optima. OK=false means repair did
// not converge (pathological float noise); the caller should ClearFlow,
// Reset, and solve cold.
func (sv *Solver) WarmStart(g *Graph, s, t int, prevPot []float64) WarmStats {
	sv.bind(g, s, t, "WarmStart")
	n := g.numNodes
	st := WarmStats{}
	sv.pot = resize(sv.pot, n)
	clear(sv.pot)
	copy(sv.pot, prevPot)
	// Repair optimality: the restored flow plus delta arcs may admit
	// negative-cost residual cycles; cancel until none remain. The search
	// starts from the previous potentials, so it proves there are none in
	// a pass or two, and finds a cycle a few passes after reaching it. The
	// bound is generous — a small delta creates at most a few — and
	// overrunning it signals a pathological instance better served cold.
	maxCancel := n + 64
	sv.dirty = resize(sv.dirty, n)
	sv.stamp = resize(sv.stamp, n)
	var passes int
	for st.CyclesCanceled < maxCancel {
		copy(sv.dist, sv.pot)
		var cycle []int32
		cycle, passes = findNegativeCycle(g, sv.dist, sv.prev, sv.dirty, sv.stamp)
		st.Passes += passes
		if cycle == nil {
			break
		}
		bottleneck := int64(math.MaxInt64)
		for _, a := range cycle {
			if g.cap[a] < bottleneck {
				bottleneck = g.cap[a]
			}
		}
		for _, a := range cycle {
			g.cap[a] -= bottleneck
			g.cap[int32(a)^1] += bottleneck
		}
		st.CyclesCanceled++
	}
	if st.CyclesCanceled >= maxCancel {
		return st // OK=false: cancelation did not converge
	}

	// Recompute the total from arc flows. Net flow out of s: forward arcs
	// in s's adjacency carry flow out, residual twins in s's adjacency mean
	// their forward arc carries flow in.
	sv.totalFlow = 0
	for _, r := range g.adj[g.start[s]:g.start[s+1]] {
		if r.arc%2 == 0 {
			sv.totalFlow += g.Flow(ArcID(r.arc))
		} else {
			sv.totalFlow -= g.cap[r.arc]
		}
	}
	st.RestoredFlow = sv.totalFlow

	// Recover valid potentials: relax pot[w] <= pot[v] + cost(v,w) over
	// every positive-capacity residual arc, seeded from the previous
	// solve's potentials. Absent negative cycles (just canceled) this is a
	// difference-constraint system; relaxation converges in at most n
	// passes, and with a good seed typically one or two. When the last
	// cycle search ended after one pass, its labels were the potentials
	// and it marked the nodes the first pass must scan.
	st.OK = sv.relaxPotentials(passes == 1)
	return st
}

// RetreatAbove pops one unit of flow back from sink to source along the
// cheapest residual t->s path when undoing that unit recovers at least
// costBound — i.e. the marginal unit currently in the flow costs >= the
// caller's stopping bound and would never have been pushed by
// AugmentPaths(..., costBound) on a cold run. ok=false means no unit
// qualifies (or no flow remains) and the retreat phase is done; unitCost
// is then at most the cheapest retreat's cost (0 when there is none).
//
// Requires valid potentials (after WarmStart or previous solver calls);
// like AugmentPaths it updates potentials so future reduced costs stay
// non-negative.
func (sv *Solver) RetreatAbove(costBound float64) (unitCost float64, ok bool) {
	if sv.totalFlow <= 0 {
		return 0, false
	}
	// Reduced distances are non-negative, so no t->s path costs less than
	// pot[s] - pot[t] (rounding is monotone). When even that refunds too
	// little, the search cannot find a unit.
	if lb := sv.pot[sv.s] - sv.pot[sv.t]; lb > -costBound {
		return lb, false
	}
	if !sv.dijkstraFrom(sv.t, sv.s) {
		return 0, false
	}
	// True cost of sending one unit t->s; undoing a forward unit "refunds"
	// -reverseCost, so retreat while reverseCost <= -costBound.
	reverseCost := sv.dist[sv.s] + sv.pot[sv.s] - sv.pot[sv.t]
	if reverseCost > -costBound {
		return reverseCost, false
	}
	g := sv.g
	sv.advancePotentials(sv.dist[sv.s])
	for v := sv.s; v != sv.t; {
		a := sv.prev[v]
		g.cap[a] -= 1
		g.cap[int32(a)^1] += 1
		v = int(g.to[int32(a)^1])
	}
	sv.totalFlow--
	return reverseCost, true
}

// findNegativeCycle runs Bellman-Ford over the residual graph from a
// virtual source joined to each node v at distance dist[v], returning the
// arcs of one negative-cost cycle, or nil if none exists, and the passes it
// made; a seed near valid potentials proves there is none in a pass or
// two. A tiny epsilon guards against floating-point noise canceling
// "cycles" of cost ~0 forever. dist, prevArc, dirty and stamp (all of
// length n) are its scratch: WarmStart lends it the solver's, dist seeded
// from the potentials, so the warm path allocates nothing per pass. Like
// relaxPotentials, a pass skips the nodes whose label has not fallen since
// their last scan.
//
// After each pass that relaxed something, one walk over the parent
// pointers looks for a cycle in the parent graph and returns the first it
// closes: a parent arc is set only when it lowers its head's label by more
// than eps, so every such cycle costs less than -eps (up to the rounding
// of the stored labels). A cycle thus shows up a few passes after the
// relaxations reach it, not on the n-th pass. A search still relaxing
// after n passes without closing a parent cycle returns nil; the
// potential relaxation then fails to converge and WarmStart goes cold. A
// nil return otherwise comes from a search that never closed a parent
// cycle, so it made the same passes, in the same order, as one without
// the walks.
//
// A nil return after one pass means the first pass relaxed nothing: dist
// is then still the seed, and dirty marks exactly the nodes with a
// residual arc whose label undercuts its head's by at most eps.
func findNegativeCycle(g *Graph, dist []float64, prevArc []int32, dirty []bool, stamp []int32) (cycle []int32, passes int) {
	const eps = 1e-12
	n, start, adj, capa := g.numNodes, g.start, g.adj, g.cap
	for i := range prevArc {
		prevArc[i] = -1
		dirty[i] = true
	}
	for passes = 1; passes <= n; passes++ {
		relaxed := false
		for v := 0; v < n; v++ {
			if !dirty[v] {
				continue
			}
			dirty[v] = false
			for _, r := range adj[start[v]:start[v+1]] {
				if capa[r.arc] <= 0 {
					continue
				}
				w := int(r.to)
				if nd := dist[v] + r.cost; nd < dist[w]-eps {
					dist[w] = nd
					prevArc[w] = r.arc
					dirty[w] = true
					relaxed = true
				} else if nd < dist[w] {
					// Within eps: no relaxation here, but v is marked for
					// the caller (a rescan of v relaxes nothing).
					dirty[v] = true
				}
			}
		}
		if !relaxed {
			return nil, passes
		}
		if w := parentCycle(g, prevArc, stamp); w >= 0 {
			return collectCycle(g, prevArc, w), passes
		}
	}
	return nil, n
}

// parentCycle returns a node on a cycle of the parent graph prevArc, or -1
// when it has none. Each walk climbs the parent pointers from one node,
// stamping what it passes, until it reaches a root or a stamped node; it
// has closed a cycle when that stamp is its own. Every node is stamped at
// most once, so the search costs O(n).
func parentCycle(g *Graph, prevArc, stamp []int32) int {
	clear(stamp)
	for v := range prevArc {
		id, w := int32(v+1), v
		for stamp[w] == 0 && prevArc[w] >= 0 {
			stamp[w] = id
			w = int(g.to[prevArc[w]^1])
		}
		if stamp[w] == id {
			return w
		}
	}
	return -1
}

// collectCycle returns the parent arcs of the cycle through v, walked
// backwards from v.
func collectCycle(g *Graph, prevArc []int32, v int) (cycle []int32) {
	for w := v; ; {
		a := prevArc[w]
		cycle = append(cycle, a)
		if w = int(g.to[a^1]); w == v {
			return cycle
		}
	}
}
