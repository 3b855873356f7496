package mincostflow

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
