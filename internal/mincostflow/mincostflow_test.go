package mincostflow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// minCostFlow pushes up to target units at minimum cost with no cost bound
// and returns the solver's total flow and the cost of the flow on its arcs.
func minCostFlow(sv *Solver, target int64) (int64, float64) {
	for sv.TotalFlow() < target {
		if _, _, ok := sv.AugmentBelow(target-sv.TotalFlow(), math.Inf(1)); !ok {
			break
		}
	}
	return sv.TotalFlow(), flowCost(sv.g)
}

// flowCost sums flow × cost over g's forward arcs.
func flowCost(g *Graph) float64 {
	c := 0.0
	for a := 0; a < len(g.to); a += 2 {
		c += float64(g.Flow(ArcID(a))) * g.cost[a]
	}
	return c
}

func TestSinglePath(t *testing.T) {
	// s -> a -> t with capacity 3, cost 1 per hop.
	g := NewGraph(3)
	g.AddArc(0, 1, 3, 1)
	g.AddArc(1, 2, 3, 1)
	sv := NewSolver(g, 0, 2)
	flow, cost := minCostFlow(sv, math.MaxInt64)
	if flow != 3 || cost != 6 {
		t.Fatalf("flow=%d cost=%v, want 3, 6", flow, cost)
	}
}

func TestChoosesCheaperPath(t *testing.T) {
	// Two parallel 2-hop paths; cheaper one must fill first.
	g := NewGraph(4)
	g.AddArc(0, 1, 1, 5) // expensive via node 1
	g.AddArc(1, 3, 1, 0)
	g.AddArc(0, 2, 1, 1) // cheap via node 2
	g.AddArc(2, 3, 1, 0)
	sv := NewSolver(g, 0, 3)
	units, unitCost, ok := sv.AugmentBelow(1, math.Inf(1))
	if !ok || units != 1 || unitCost != 1 {
		t.Fatalf("first augment = (%d, %v, %v), want (1, 1, true)", units, unitCost, ok)
	}
	units, unitCost, ok = sv.AugmentBelow(1, math.Inf(1))
	if !ok || units != 1 || unitCost != 5 {
		t.Fatalf("second augment = (%d, %v, %v), want (1, 5, true)", units, unitCost, ok)
	}
	if _, _, ok = sv.AugmentBelow(1, math.Inf(1)); ok {
		t.Fatal("third augment should fail: network saturated")
	}
}

func TestResidualReroute(t *testing.T) {
	// Classic diamond where the optimal 2-unit flow must cancel part of the
	// greedy first path through the middle arc.
	//     s(0) -> a(1) cost 1
	//     s(0) -> b(2) cost 2
	//     a -> b cost 0   (tempting shortcut)
	//     a -> t(3) cost 3
	//     b -> t cost 1
	g := NewGraph(4)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(0, 2, 1, 2)
	ab := g.AddArc(1, 2, 1, 0)
	g.AddArc(1, 3, 1, 3)
	g.AddArc(2, 3, 1, 1)
	sv := NewSolver(g, 0, 3)
	flow, cost := minCostFlow(sv, 2)
	if flow != 2 || cost != 7 {
		t.Fatalf("flow=%d cost=%v, want 2, 7", flow, cost)
	}
	// First unit goes s->a->b->t (cost 2). Optimal two units are
	// s->a->b->t and s->b->t is blocked by b->t capacity... with unit
	// capacities the optimum uses a->t and b->t: check the shortcut ended
	// unused or used consistently with cost 7.
	_ = ab
}

func TestUnitCostsNonDecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		g, s, tt := randomBipartite(rng, 4, 5)
		sv := NewSolver(g, s, tt)
		prev := -1.0
		for {
			_, c, ok := sv.AugmentBelow(1, math.Inf(1))
			if !ok {
				break
			}
			if c < prev-1e-9 {
				t.Fatalf("trial %d: unit cost decreased: %v after %v", trial, c, prev)
			}
			prev = c
		}
	}
}

func TestFlowConservationProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, s, tt := randomBipartite(rng, 1+rng.Intn(4), 1+rng.Intn(5))
		sv := NewSolver(g, s, tt)
		minCostFlow(sv, math.MaxInt64)
		// Net flow at every node except s, t must be zero. Reconstruct arc
		// flows from residual twins.
		net := make(map[int]int64)
		for a := 0; a < len(g.to); a += 2 {
			from := int(g.to[a^1])
			to := int(g.to[a])
			f := g.Flow(ArcID(a))
			if f < 0 {
				return false
			}
			net[from] -= f
			net[to] += f
		}
		for v, n := range net {
			if v == s || v == tt {
				continue
			}
			if n != 0 {
				return false
			}
		}
		return net[s] == -net[tt] && net[s] == -sv.TotalFlow()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// bruteMinCost computes, for a small bipartite transportation instance, the
// minimum cost of shipping exactly k units, by exhaustive enumeration over
// 0/1 assignment matrices. Returns +Inf when k units are infeasible.
func bruteMinCost(nv, nu int, capV, capU []int64, cost [][]float64, k int) float64 {
	best := math.Inf(1)
	remV := append([]int64(nil), capV...)
	remU := append([]int64(nil), capU...)
	var rec func(idx, used int, total float64)
	rec = func(idx, used int, total float64) {
		if used == k {
			if total < best {
				best = total
			}
			return
		}
		if idx == nv*nu {
			return
		}
		v, u := idx/nu, idx%nu
		// Skip this pair.
		rec(idx+1, used, total)
		// Take this pair if capacities allow.
		if remV[v] > 0 && remU[u] > 0 {
			remV[v]--
			remU[u]--
			rec(idx+1, used+1, total+cost[v][u])
			remV[v]++
			remU[u]++
		}
	}
	rec(0, 0, 0)
	return best
}

func TestMatchesBruteForceEveryAmount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		nv, nu := 1+rng.Intn(3), 1+rng.Intn(3)
		capV := make([]int64, nv)
		capU := make([]int64, nu)
		for i := range capV {
			capV[i] = 1 + int64(rng.Intn(2))
		}
		for i := range capU {
			capU[i] = 1 + int64(rng.Intn(2))
		}
		cost := make([][]float64, nv)
		for v := range cost {
			cost[v] = make([]float64, nu)
			for u := range cost[v] {
				cost[v][u] = math.Round(rng.Float64()*100) / 100
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
		for k := int64(1); k <= maxFlow; k++ {
			g, s, tt := buildBipartite(nv, nu, capV, capU, cost)
			sv := NewSolver(g, s, tt)
			flow, got := minCostFlow(sv, k)
			want := bruteMinCost(nv, nu, capV, capU, cost, int(k))
			if math.IsInf(want, 1) {
				if flow == k {
					t.Fatalf("trial %d k=%d: solver found %d units, brute force says infeasible", trial, k, flow)
				}
				continue
			}
			if flow != k {
				t.Fatalf("trial %d k=%d: solver pushed only %d units", trial, k, flow)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d k=%d: cost %v, brute force %v", trial, k, got, want)
			}
		}
	}
}

func TestNegativeCostArcs(t *testing.T) {
	// A negative arc forces the Bellman–Ford potential bootstrap.
	g := NewGraph(4)
	g.AddArc(0, 1, 2, -3)
	g.AddArc(1, 2, 2, 1)
	g.AddArc(0, 2, 2, 5)
	g.AddArc(2, 3, 3, 0)
	sv := NewSolver(g, 0, 3)
	flow, cost := minCostFlow(sv, 3)
	if flow != 3 {
		t.Fatalf("flow = %d, want 3", flow)
	}
	// Two units via the negative path (-2 each), one via the direct arc (5).
	if want := 2*(-2.0) + 5; math.Abs(cost-want) > 1e-9 {
		t.Fatalf("cost = %v, want %v", cost, want)
	}
}

func TestUnreachableSink(t *testing.T) {
	g := NewGraph(3)
	g.AddArc(0, 1, 1, 1) // node 2 disconnected
	sv := NewSolver(g, 0, 2)
	flow, cost := minCostFlow(sv, 5)
	if flow != 0 || cost != 0 {
		t.Fatalf("flow=%d cost=%v, want 0, 0", flow, cost)
	}
	if _, _, ok := sv.AugmentBelow(1, math.Inf(1)); ok {
		t.Fatal("Augment must fail on unreachable sink")
	}
}

func TestZeroCapacityArcIgnored(t *testing.T) {
	g := NewGraph(2)
	g.AddArc(0, 1, 0, 1)
	sv := NewSolver(g, 0, 1)
	if flow, _ := minCostFlow(sv, 1); flow != 0 {
		t.Fatalf("flow through zero-capacity arc: %d", flow)
	}
}

func TestArcFlowReadback(t *testing.T) {
	g := NewGraph(3)
	a1 := g.AddArc(0, 1, 4, 1)
	a2 := g.AddArc(1, 2, 2, 1)
	sv := NewSolver(g, 0, 2)
	minCostFlow(sv, math.MaxInt64)
	if g.Flow(a1) != 2 || g.Flow(a2) != 2 {
		t.Fatalf("arc flows = %d, %d, want 2, 2", g.Flow(a1), g.Flow(a2))
	}
}

func TestAugmentRespectsMaxUnits(t *testing.T) {
	g := NewGraph(2)
	g.AddArc(0, 1, 10, 0.5)
	sv := NewSolver(g, 0, 1)
	units, _, ok := sv.AugmentBelow(3, math.Inf(1))
	if !ok || units != 3 {
		t.Fatalf("units = %d, want 3", units)
	}
	if sv.TotalFlow() != 3 {
		t.Fatalf("TotalFlow = %d", sv.TotalFlow())
	}
	if units, _, _ := sv.AugmentBelow(100, math.Inf(1)); units != 7 {
		t.Fatalf("bottleneck cap not honored: %d", units)
	}
}

func TestBadConstructionPanics(t *testing.T) {
	assertPanics(t, func() { NewGraph(0) })
	g := NewGraph(2)
	assertPanics(t, func() { g.AddArc(-1, 0, 1, 0) })
	assertPanics(t, func() { g.AddArc(0, 2, 1, 0) })
	assertPanics(t, func() { g.AddArc(0, 1, -1, 0) })
	assertPanics(t, func() { g.AddArc(0, 1, 1, math.NaN()) })
	assertPanics(t, func() { NewSolver(g, 0, 0) })
	assertPanics(t, func() { NewSolver(g, 0, 5) })
}

// randomBipartite builds a random transportation network: source 0,
// events 1..nv, users nv+1..nv+nu, sink nv+nu+1, unit pair capacities and
// costs in [0, 1] (the shape of the GEACC reduction).
func randomBipartite(rng *rand.Rand, nv, nu int) (g *Graph, s, t int) {
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
			cost[v][u] = rng.Float64()
		}
	}
	return buildBipartite(nv, nu, capV, capU, cost)
}

func buildBipartite(nv, nu int, capV, capU []int64, cost [][]float64) (g *Graph, s, t int) {
	n := nv + nu + 2
	s, t = 0, n-1
	g = NewGraph(n)
	for v := 0; v < nv; v++ {
		g.AddArc(s, 1+v, capV[v], 0)
	}
	for u := 0; u < nu; u++ {
		g.AddArc(1+nv+u, t, capU[u], 0)
	}
	for v := 0; v < nv; v++ {
		for u := 0; u < nu; u++ {
			g.AddArc(1+v, 1+nv+u, 1, cost[v][u])
		}
	}
	return g, s, t
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
