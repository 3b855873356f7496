package mincostflow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// CycleCanceling computes a minimum-cost flow of exactly target units (or
// the maximum flow, if smaller) with the classic cycle-canceling method:
// establish a feasible flow of the desired amount with plain augmenting
// paths, then repeatedly cancel negative-cost residual cycles found by
// Bellman-Ford until none remain.
//
// The paper's Section III.A picks the successive-shortest-path algorithm as
// the practical choice for MinCostFlow-GEACC; this solver is the ablation
// baseline for that decision (see BenchmarkFlowSolvers) and the tests'
// independent oracle. It mutates g like Solver does; use a fresh graph per
// run.
func CycleCanceling(g *Graph, s, t int, target int64) (flow int64, cost float64, err error) {
	if s < 0 || s >= g.numNodes || t < 0 || t >= g.numNodes || s == t {
		return 0, 0, fmt.Errorf("mincostflow: invalid terminals s=%d t=%d (n=%d)", s, t, g.numNodes)
	}
	g.index(s, t)
	flow = establishFlow(g, s, t, target)
	n := g.numNodes
	dist, prev, dirty, stamp := make([]float64, n), make([]int32, n), make([]bool, n), make([]int32, n)
	for {
		clear(dist)
		cycle, _ := findNegativeCycle(g, dist, prev, dirty, stamp)
		if cycle == nil {
			break
		}
		// Bottleneck along the cycle.
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
	}
	// Recompute the final cost from arc flows.
	for a := 0; a < len(g.to); a += 2 {
		cost += float64(g.Flow(ArcID(a))) * g.cost[a]
	}
	return flow, cost, nil
}

// establishFlow pushes up to target units from s to t along BFS augmenting
// paths, ignoring costs.
func establishFlow(g *Graph, s, t int, target int64) int64 {
	var total int64
	prev := make([]int32, g.numNodes)
	for total < target {
		for i := range prev {
			prev[i] = -1
		}
		// BFS over positive-capacity residual arcs.
		queue := []int{s}
		prev[s] = -2
		for len(queue) > 0 && prev[t] == -1 {
			v := queue[0]
			queue = queue[1:]
			for _, r := range g.adj[g.start[v]:g.start[v+1]] {
				if w := int(r.to); g.cap[r.arc] > 0 && prev[w] == -1 {
					prev[w] = r.arc
					queue = append(queue, w)
				}
			}
		}
		if prev[t] == -1 {
			break // no augmenting path left
		}
		bottleneck := target - total
		for v := t; v != s; {
			a := prev[v]
			if g.cap[a] < bottleneck {
				bottleneck = g.cap[a]
			}
			v = int(g.to[int32(a)^1])
		}
		for v := t; v != s; {
			a := prev[v]
			g.cap[a] -= bottleneck
			g.cap[int32(a)^1] += bottleneck
			v = int(g.to[int32(a)^1])
		}
		total += bottleneck
	}
	return total
}

func TestCycleCancelingSimple(t *testing.T) {
	g := NewGraph(4)
	g.AddArc(0, 1, 1, 5)
	g.AddArc(1, 3, 1, 0)
	g.AddArc(0, 2, 1, 1)
	g.AddArc(2, 3, 1, 0)
	flow, cost, err := CycleCanceling(g, 0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 1 || math.Abs(cost-1) > 1e-9 {
		t.Fatalf("flow=%d cost=%v, want 1, 1", flow, cost)
	}
}

func TestCycleCancelingNeedsCanceling(t *testing.T) {
	// BFS establishes flow on the expensive path first; a negative residual
	// cycle then reroutes it.
	g := NewGraph(4)
	g.AddArc(0, 1, 1, 10) // expensive
	g.AddArc(1, 3, 1, 0)
	g.AddArc(0, 2, 1, 1) // cheap
	g.AddArc(2, 3, 1, 0)
	flow, cost, err := CycleCanceling(g, 0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 1 || math.Abs(cost-1) > 1e-9 {
		t.Fatalf("flow=%d cost=%v, want 1, 1", flow, cost)
	}
}

func TestCycleCancelingMatchesSSPAProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv, nu := 1+rng.Intn(4), 1+rng.Intn(4)
		capV := make([]int64, nv)
		capU := make([]int64, nu)
		for i := range capV {
			capV[i] = 1 + int64(rng.Intn(3))
		}
		for i := range capU {
			capU[i] = 1 + int64(rng.Intn(2))
		}
		cost := make([][]float64, nv)
		for v := range cost {
			cost[v] = make([]float64, nu)
			for u := range cost[v] {
				cost[v][u] = math.Round(rng.Float64()*1000) / 1000
			}
		}
		var sumV, sumU int64
		for _, c := range capV {
			sumV += c
		}
		for _, c := range capU {
			sumU += c
		}
		maxFlow := sumV
		if sumU < maxFlow {
			maxFlow = sumU
		}
		target := 1 + rng.Int63n(maxFlow)

		gA, s, tt := buildBipartite(nv, nu, capV, capU, cost)
		sspa := NewSolver(gA, s, tt)
		flowA, costA := minCostFlow(sspa, target)

		gB, _, _ := buildBipartite(nv, nu, capV, capU, cost)
		flowB, costB, err := CycleCanceling(gB, s, tt, target)
		if err != nil {
			return false
		}
		return flowA == flowB && math.Abs(costA-costB) <= 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestCycleCancelingPartialFlow(t *testing.T) {
	// Target exceeds the max flow: solver delivers what is possible.
	g := NewGraph(3)
	g.AddArc(0, 1, 2, 1)
	g.AddArc(1, 2, 2, 1)
	flow, cost, err := CycleCanceling(g, 0, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 2 || math.Abs(cost-4) > 1e-9 {
		t.Fatalf("flow=%d cost=%v", flow, cost)
	}
}

func TestCycleCancelingDisconnected(t *testing.T) {
	g := NewGraph(3)
	g.AddArc(0, 1, 1, 1)
	flow, cost, err := CycleCanceling(g, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 0 || cost != 0 {
		t.Fatalf("flow=%d cost=%v", flow, cost)
	}
}

func TestCycleCancelingBadTerminals(t *testing.T) {
	g := NewGraph(2)
	if _, _, err := CycleCanceling(g, 0, 0, 1); err == nil {
		t.Error("s == t accepted")
	}
	if _, _, err := CycleCanceling(g, 0, 5, 1); err == nil {
		t.Error("out-of-range sink accepted")
	}
}

func BenchmarkFlowSolvers(b *testing.B) {
	// The §III.A algorithm-choice ablation: SSPA (the paper's pick) versus
	// cycle canceling on a GEACC-shaped transportation network. The SSPA
	// run also reports its Dijkstra work per solve.
	rng := rand.New(rand.NewSource(77))
	const nv, nu = 20, 100
	capV := make([]int64, nv)
	capU := make([]int64, nu)
	for i := range capV {
		capV[i] = 1 + int64(rng.Intn(10))
	}
	for i := range capU {
		capU[i] = 1 + int64(rng.Intn(3))
	}
	cost := make([][]float64, nv)
	for v := range cost {
		cost[v] = make([]float64, nu)
		for u := range cost[v] {
			cost[v][u] = rng.Float64()
		}
	}
	b.Run("sspa", func(b *testing.B) {
		var work SearchStats
		for i := 0; i < b.N; i++ {
			g, s, t := buildBipartite(nv, nu, capV, capU, cost)
			sv := NewSolver(g, s, t)
			for more := true; more && sv.TotalFlow() < 50; {
				_, more = sv.AugmentPaths(50-sv.TotalFlow(), math.Inf(1))
			}
			st := sv.SearchStats()
			work.Searches += st.Searches
			work.Pops += st.Pops
			work.ArcScans += st.ArcScans
		}
		b.ReportMetric(float64(work.Searches)/float64(b.N), "searches/op")
		b.ReportMetric(float64(work.Pops)/float64(b.N), "pops/op")
		b.ReportMetric(float64(work.ArcScans)/float64(b.N), "arcscans/op")
	})
	b.Run("cycle-canceling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, s, t := buildBipartite(nv, nu, capV, capU, cost)
			if _, _, err := CycleCanceling(g, s, t, 50); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// findNegativeCycle runs Bellman-Ford over the residual graph from a
// virtual source joined to each node v at distance dist[v], returning the
// arcs of one negative-cost cycle, or nil if none exists, and the passes it
// made; a seed near valid potentials proves there is none in a pass or
// two. A tiny epsilon guards against floating-point noise canceling
// "cycles" of cost ~0 forever. dist, prevArc, dirty and stamp (all of
// length n) are its scratch. Like relaxPotentials, a pass skips the nodes
// whose label has not fallen since their last scan. It is
// CycleCanceling's cycle search.
//
// After each pass that relaxed something, one walk over the parent
// pointers looks for a cycle in the parent graph and returns the first it
// closes: a parent arc is set only when it lowers its head's label by more
// than eps, so every such cycle costs less than -eps (up to the rounding
// of the stored labels). A cycle thus shows up a few passes after the
// relaxations reach it, not on the n-th pass. A search still relaxing
// after n passes without closing a parent cycle returns nil. A nil
// return otherwise comes from a search that never closed a parent
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
