package mincostflow

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fullRelax and fullNegativeCycle are Bellman–Ford with every node scanned
// on every pass: the references for relaxPotentials and findNegativeCycle,
// which skip nodes whose label has not fallen since their last scan.
func fullRelax(g *Graph, pot []float64) bool {
	for iter := 0; iter <= g.numNodes; iter++ {
		changed := false
		for v := 0; v < g.numNodes; v++ {
			for _, r := range g.adj[g.start[v]:g.start[v+1]] {
				if g.cap[r.arc] > 0 && pot[v]+r.cost < pot[r.to] {
					pot[r.to] = pot[v] + r.cost
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

func fullNegativeCycle(g *Graph, dist []float64) []int32 {
	const eps = 1e-12
	n := g.numNodes
	prevArc := make([]int32, n)
	cycleNode := -1
	for iter := 0; iter < n; iter++ {
		cycleNode = -1
		for v := 0; v < n; v++ {
			for _, r := range g.adj[g.start[v]:g.start[v+1]] {
				if g.cap[r.arc] > 0 && dist[v]+r.cost < dist[r.to]-eps {
					dist[r.to] = dist[v] + r.cost
					prevArc[r.to] = r.arc
					cycleNode = int(r.to)
				}
			}
		}
		if cycleNode == -1 {
			return nil
		}
	}
	v := cycleNode
	for range n {
		v = int(g.to[prevArc[v]^1])
	}
	var cycle []int32
	for w := v; ; {
		a := prevArc[w]
		cycle = append(cycle, a)
		if w = int(g.to[a^1]); w == v {
			return cycle
		}
	}
}

// cycleSearchOutcome is what checkCycleSearch saw on one network and seed.
type cycleSearchOutcome struct {
	cycle, onePass, marked bool
}

// checkCycleSearch runs findNegativeCycle from seed and holds it to the
// full passes. A nil result must match them bit for bit: no cycle, the
// same labels, and after one pass the marks of exactly the nodes with a
// violating arc, from which relaxPotentials must again match full passes.
// A returned cycle must be one the full passes also detect, and a closed
// walk of positive-residual arcs costing less than -eps.
func checkCycleSearch(t *testing.T, g *Graph, seed []float64) cycleSearchOutcome {
	t.Helper()
	const eps = 1e-12
	n := g.numNodes
	dist, wantDist, dirty := slices.Clone(seed), slices.Clone(seed), make([]bool, n)
	got, passes := findNegativeCycle(g, dist, make([]int32, n), dirty, make([]int32, n))
	wantCycle := fullNegativeCycle(g, wantDist)
	if passes < 1 || passes > n {
		t.Fatalf("findNegativeCycle reports %d passes on %d nodes", passes, n)
	}
	if got != nil {
		if wantCycle == nil {
			t.Fatalf("cycle %v, full passes find none", got)
		}
		cost := 0.0
		for i, a := range got {
			// got lists the cycle backwards: arc i's tail is arc i+1's head.
			next := got[(i+1)%len(got)]
			if a < 0 || int(a) >= len(g.cap) || g.cap[a] <= 0 || g.to[a^1] != g.to[next] {
				t.Fatalf("cycle %v is not a closed walk of positive-residual arcs (at arc %d)", got, a)
			}
			cost += g.cost[a]
		}
		if cost >= -eps {
			t.Fatalf("cycle %v costs %v, not below -eps", got, cost)
		}
		return cycleSearchOutcome{cycle: true}
	}
	if wantCycle != nil {
		t.Fatalf("no cycle, full passes find %v", wantCycle)
	}
	for v := range wantDist {
		if math.Float64bits(dist[v]) != math.Float64bits(wantDist[v]) {
			t.Fatalf("dist[%d] = %v, full passes %v", v, dist[v], wantDist[v])
		}
	}
	if passes != 1 {
		return cycleSearchOutcome{}
	}
	for v := range n {
		violates := false
		for _, r := range g.adj[g.start[v]:g.start[v+1]] {
			violates = violates || (g.cap[r.arc] > 0 && seed[v]+r.cost < seed[r.to])
		}
		if dirty[v] != violates {
			t.Fatalf("one pass marked node %d %v, its arcs violate: %v", v, dirty[v], violates)
		}
	}
	marked := slices.Contains(dirty, true)
	want := slices.Clone(seed)
	wantOK := fullRelax(g, want)
	sv := &Solver{g: g, pot: slices.Clone(seed), dirty: dirty}
	if ok := sv.relaxPotentials(true); ok != wantOK {
		t.Fatalf("relaxPotentials from the marks converged %v, full passes %v", ok, wantOK)
	}
	for v := range want {
		if math.Float64bits(sv.pot[v]) != math.Float64bits(want[v]) {
			t.Fatalf("pot[%d] = %v from the marks, full passes %v", v, sv.pot[v], want[v])
		}
	}
	return cycleSearchOutcome{onePass: true, marked: marked}
}

// TestBellmanFordSkipsMatchFullPasses checks, on random networks with
// negative costs, that relaxPotentials leaves bit-identical potentials and
// convergence verdicts as the full passes do, and holds findNegativeCycle
// to them through checkCycleSearch.
func TestBellmanFordSkipsMatchFullPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	onePasses, marked, cycles := 0, 0, 0
	for trial := range 400 {
		n := 2 + rng.Intn(12)
		g := NewGraph(n)
		for range rng.Intn(4 * n) {
			from, to := rng.Intn(n), rng.Intn(n)
			if from != to {
				// Quarter-unit costs make exact ties and zero-cost cycles
				// common; odd trials allow negative cycles.
				c := float64(rng.Intn(9)-2) / 4
				if trial%2 == 1 {
					c = float64(rng.Intn(9)-5) / 4
				}
				g.AddArc(from, to, int64(rng.Intn(3)), c)
			}
		}
		g.index(0, n-1)
		for v := range n {
			g.sortArcs(v)
		}
		// Seeds are random eighths, or every fourth trial the relaxed
		// potentials, whose tight arcs the jitter below findNegativeCycle's
		// eps turns into violations that only relaxPotentials repairs.
		seed := make([]float64, n)
		if trial%4 == 0 {
			fullRelax(g, seed)
		} else {
			for v := range seed {
				seed[v] = float64(rng.Intn(5)) / 8
			}
		}
		for v := range seed {
			seed[v] += float64(rng.Intn(3)) * 3e-13
		}

		want := slices.Clone(seed)
		wantOK := fullRelax(g, want)
		sv := &Solver{g: g, pot: slices.Clone(seed)}
		if ok := sv.relaxPotentials(false); ok != wantOK {
			t.Fatalf("trial %d: relaxPotentials converged %v, full passes %v", trial, ok, wantOK)
		}
		for v := range want {
			if math.Float64bits(sv.pot[v]) != math.Float64bits(want[v]) {
				t.Fatalf("trial %d: pot[%d] = %v, full passes %v", trial, v, sv.pot[v], want[v])
			}
		}

		out := checkCycleSearch(t, g, seed)
		if out.cycle {
			cycles++
		}
		if out.onePass {
			onePasses++
		}
		if out.marked {
			marked++
		}
	}
	if onePasses < 50 || marked < 20 || cycles < 50 {
		t.Fatalf("only %d trials ended after one pass, %d of them with marks; %d found a cycle", onePasses, marked, cycles)
	}
}

// TestNegativeCycleFoundEarly plants one 3-arc negative cycle in a
// 200-node network whose other arcs cost at least 3, so no other cycle is
// negative. Plain Bellman–Ford reports it on the 200th pass; the
// parent-graph check must return exactly its arcs within 4.
func TestNegativeCycleFoundEarly(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(3))
	g := NewGraph(n)
	for range 4 * n {
		if from, to := rng.Intn(n), rng.Intn(n); from != to {
			g.AddArc(from, to, 1, 3+float64(rng.Intn(5))/4)
		}
	}
	planted := []int32{
		int32(g.AddArc(150, 40, 1, 1)),
		int32(g.AddArc(40, 190, 1, 1)),
		int32(g.AddArc(190, 150, 1, -3)),
	}
	g.index(0, n-1)
	if ref := fullNegativeCycle(g, make([]float64, n)); ref == nil {
		t.Fatal("full passes miss the planted cycle")
	}
	cycle, passes := findNegativeCycle(g, make([]float64, n), make([]int32, n), make([]bool, n), make([]int32, n))
	slices.Sort(cycle)
	if !slices.Equal(cycle, planted) {
		t.Fatalf("cycle %v, planted %v", cycle, planted)
	}
	if passes > 4 {
		t.Fatalf("found after %d passes, want at most 4", passes)
	}
}
