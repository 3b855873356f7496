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

// TestBellmanFordSkipsMatchFullPasses checks, on random networks with
// negative costs, that relaxPotentials leaves bit-identical potentials and
// convergence verdicts, and findNegativeCycle the same cycle and labels,
// as the full passes do. When findNegativeCycle ends after one pass, it
// must mark exactly the nodes with a violating arc, and relaxPotentials
// started from those marks must again match the full passes.
func TestBellmanFordSkipsMatchFullPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	onePasses, marked := 0, 0
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
		checkRelax := func(sv *Solver, how string) {
			t.Helper()
			if ok := sv.relaxPotentials(how == "marked"); ok != wantOK {
				t.Fatalf("trial %d (%s): relaxPotentials converged %v, full passes %v", trial, how, ok, wantOK)
			}
			for v := range want {
				if math.Float64bits(sv.pot[v]) != math.Float64bits(want[v]) {
					t.Fatalf("trial %d (%s): pot[%d] = %v, full passes %v", trial, how, v, sv.pot[v], want[v])
				}
			}
		}
		checkRelax(&Solver{g: g, pot: slices.Clone(seed)}, "all")

		dist, wantDist, dirty := slices.Clone(seed), slices.Clone(seed), make([]bool, n)
		got, onePass := findNegativeCycle(g, dist, make([]int32, n), dirty)
		if wantCycle := fullNegativeCycle(g, wantDist); !slices.Equal(got, wantCycle) {
			t.Fatalf("trial %d: cycle %v, full passes %v", trial, got, wantCycle)
		}
		for v := range wantDist {
			if math.Float64bits(dist[v]) != math.Float64bits(wantDist[v]) {
				t.Fatalf("trial %d: dist[%d] = %v, full passes %v", trial, v, dist[v], wantDist[v])
			}
		}
		if !onePass {
			continue
		}
		onePasses++
		if slices.Contains(dirty, true) {
			marked++
		}
		for v := range n {
			violates := false
			for _, r := range g.adj[g.start[v]:g.start[v+1]] {
				violates = violates || (g.cap[r.arc] > 0 && seed[v]+r.cost < seed[r.to])
			}
			if dirty[v] != violates {
				t.Fatalf("trial %d: one pass marked node %d %v, its arcs violate: %v", trial, v, dirty[v], violates)
			}
		}
		checkRelax(&Solver{g: g, pot: slices.Clone(seed), dirty: dirty}, "marked")
	}
	if onePasses < 50 || marked < 20 {
		t.Fatalf("only %d trials ended after one pass, %d of them with marks", onePasses, marked)
	}
}
