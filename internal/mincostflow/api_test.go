package mincostflow

import (
	"math"
	"slices"
	"testing"
)

func TestGraphAccessors(t *testing.T) {
	g := AcquireGraph(3)
	if g.numNodes != 3 || len(g.to)/2 != 0 {
		t.Fatalf("fresh graph: nodes=%d arcs=%d", g.numNodes, len(g.to)/2)
	}
	g.Grow(10)
	g.AddArc(0, 1, 2, 0.5)
	g.AddArc(1, 2, 1, 0.25)
	if len(g.to)/2 != 2 {
		t.Fatalf("arcs = %d", len(g.to)/2)
	}
	// Grow must preserve existing arcs.
	sv := AcquireSolver(g, 0, 2)
	flow, cost := minCostFlow(sv, math.MaxInt64)
	if flow != 1 || math.Abs(cost-0.75) > 1e-12 {
		t.Fatalf("flow=%d cost=%v after Grow", flow, cost)
	}
	if sv.TotalFlow() != 1 || math.Abs(flowCost(sv.g)-0.75) > 1e-12 {
		t.Fatalf("totals = %d, %v", sv.TotalFlow(), flowCost(sv.g))
	}
}

func TestAugmentBelowStopsAtBound(t *testing.T) {
	// Two unit paths: costs 0.4 and 0.9. With bound 0.5 only the cheap one
	// is taken; a second call reports the rejected cost.
	g := AcquireGraph(4)
	g.AddArc(0, 1, 1, 0.4)
	g.AddArc(1, 3, 1, 0)
	g.AddArc(0, 2, 1, 0.9)
	g.AddArc(2, 3, 1, 0)
	sv := AcquireSolver(g, 0, 3)
	units, cost, ok := sv.AugmentBelow(10, 0.5)
	if !ok || units != 1 || math.Abs(cost-0.4) > 1e-12 {
		t.Fatalf("first AugmentBelow = (%d, %v, %v)", units, cost, ok)
	}
	units, cost, ok = sv.AugmentBelow(10, 0.5)
	if ok || units != 0 {
		t.Fatalf("second AugmentBelow pushed %d units", units)
	}
	if math.Abs(cost-0.9) > 1e-12 {
		t.Fatalf("rejected cost = %v, want 0.9", cost)
	}
	// Raising the bound lets the expensive path through.
	if units, _, ok = sv.AugmentBelow(10, 1.0); !ok || units != 1 {
		t.Fatalf("bound raise failed: (%d, %v)", units, ok)
	}
	// Saturated network: not ok, zero cost reported.
	if _, _, ok = sv.AugmentBelow(10, 1.0); ok {
		t.Fatal("saturated network still augmented")
	}
	if _, _, ok := sv.AugmentBelow(0, 1.0); ok {
		t.Fatal("zero maxUnits augmented")
	}
}

func TestSearchStopsAtTarget(t *testing.T) {
	// 0 -> 1 -> 2 is the unit path to the sink; 0 -> 3 -> 4 is a dead
	// branch the first search never needs to settle.
	g := AcquireGraph(5)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(1, 2, 1, 1)
	g.AddArc(0, 3, 1, 5)
	g.AddArc(3, 4, 1, 0)
	sv := AcquireSolver(g, 0, 2)
	if units, cost, ok := sv.AugmentBelow(1, math.Inf(1)); !ok || units != 1 || cost != 2 {
		t.Fatalf("Augment = (%d, %v, %v), want (1, 2, true)", units, cost, ok)
	}
	// Pops 0, 1 and the sink. Scans 0's arcs by cost: 0 -> 1 sets the
	// sink bound 2, and 0 -> 3 (cost 5) ends the scan; then 1's two.
	if pops, scans := sv.SearchStats(); pops != 3 || scans != 4 {
		t.Fatalf("first search: pops=%d scans=%d, want 3 and 4", pops, scans)
	}
	// Settled nodes advance by their distance; node 3 (tentative 5) and
	// node 4 (never reached) by the sink's distance 2.
	want := []float64{0, 1, 2, 2, 2}
	if got := sv.Potentials(nil); !slices.Equal(got, want) {
		t.Fatalf("potentials = %v, want %v", got, want)
	}
	// The sink is cut off: the second search exhausts the dead branch.
	if _, _, ok := sv.AugmentBelow(1, math.Inf(1)); ok {
		t.Fatal("augmented a saturated network")
	}
	if pops, scans := sv.SearchStats(); pops != 6 || scans != 9 {
		t.Fatalf("after both searches: pops=%d scans=%d, want 6 and 9", pops, scans)
	}
}

func TestSearchSkipsArcsPastSinkBound(t *testing.T) {
	// Node 1 reaches the sink 5 through 2, 3 or 4 at rising costs 1, 2, 3.
	// Its arcs are scanned cheapest first, and once the bound on the
	// sink's distance is known the costlier ones cannot beat it.
	g := AcquireGraph(6)
	src := g.AddArc(0, 1, 3, 0)
	mid := []ArcID{g.AddArc(1, 2, 1, 1), g.AddArc(1, 3, 1, 2), g.AddArc(1, 4, 1, 3)}
	for w := 2; w <= 4; w++ {
		g.AddArc(w, 5, 1, 0)
	}
	sv := AcquireSolver(g, 0, 5)
	steps := []struct {
		cost        float64
		pops, scans int64
		flows       []int64 // on 1 -> 2, 1 -> 3, 1 -> 4
		pot         []float64
	}{
		// Pops 0, 1, 2 and the sink. 1 -> 2 sets the bound 1 through 2's
		// sink arc, and 1 -> 3 ends the scan (0 + 2 - potMax 0 >= 1): node
		// 1 scans its source twin, 1 -> 2 and 1 -> 3, and 1 -> 4 is never
		// read. Scans: 1 at 0, 3 at 1, 2 at 2. Nodes 3 and 4 are never
		// labeled and advance by the sink's distance.
		{1, 4, 6, []int64{1, 0, 0}, []float64{0, 0, 1, 1, 1, 1}},
		// With 1 -> 2 saturated, 1 -> 3 sets the bound 1 and 1 -> 4 ends
		// the scan (0 + 3 - potMax 1 >= 1). Scans: 1 at 0, 4 at 1, 2 at 3.
		{2, 8, 13, []int64{1, 1, 0}, []float64{0, 0, 2, 2, 2, 2}},
	}
	for i, want := range steps {
		units, cost, ok := sv.AugmentBelow(1, math.Inf(1))
		if !ok || units != 1 || cost != want.cost {
			t.Fatalf("step %d: Augment = (%d, %v, %v), want (1, %v, true)", i, units, cost, ok, want.cost)
		}
		if pops, scans := sv.SearchStats(); pops != want.pops || scans != want.scans {
			t.Fatalf("step %d: pops=%d scans=%d, want %d and %d", i, pops, scans, want.pops, want.scans)
		}
		for j, a := range mid {
			if f := g.Flow(a); f != want.flows[j] {
				t.Fatalf("step %d: flow on 1 -> %d is %d, want %d", i, j+2, f, want.flows[j])
			}
		}
		if f := g.Flow(src); f != int64(i+1) {
			t.Fatalf("step %d: source arc carries %d", i, f)
		}
		if got := sv.Potentials(nil); !slices.Equal(got, want.pot) {
			t.Fatalf("step %d: potentials = %v, want %v", i, got, want.pot)
		}
	}
}
