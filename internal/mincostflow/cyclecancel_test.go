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
	g := AcquireGraph(4)
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
	g := AcquireGraph(4)
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
		sspa := AcquireSolver(gA, s, tt)
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
	g := AcquireGraph(3)
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
	g := AcquireGraph(3)
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
	g := AcquireGraph(2)
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
		var pops, scans int64
		for i := 0; i < b.N; i++ {
			g, s, t := buildBipartite(nv, nu, capV, capU, cost)
			sv := AcquireSolver(g, s, t)
			minCostFlow(sv, 50)
			p, a := sv.SearchStats()
			pops, scans = pops+p, scans+a
		}
		b.ReportMetric(float64(pops)/float64(b.N), "pops/op")
		b.ReportMetric(float64(scans)/float64(b.N), "arcscans/op")
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
