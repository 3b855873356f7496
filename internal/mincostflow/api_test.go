package mincostflow

import (
	"math"
	"slices"
	"testing"
)

func TestGraphAccessors(t *testing.T) {
	g := NewGraph(3)
	if g.NumNodes() != 3 || g.NumArcs() != 0 {
		t.Fatalf("fresh graph: nodes=%d arcs=%d", g.NumNodes(), g.NumArcs())
	}
	g.Grow(10)
	g.AddArc(0, 1, 2, 0.5)
	g.AddArc(1, 2, 1, 0.25)
	if g.NumArcs() != 2 {
		t.Fatalf("NumArcs = %d", g.NumArcs())
	}
	// Grow must preserve existing arcs.
	sv := NewSolver(g, 0, 2)
	flow, cost := sv.MinCostFlow(math.MaxInt64)
	if flow != 1 || math.Abs(cost-0.75) > 1e-12 {
		t.Fatalf("flow=%d cost=%v after Grow", flow, cost)
	}
	if sv.TotalFlow() != 1 || math.Abs(sv.TotalCost()-0.75) > 1e-12 {
		t.Fatalf("totals = %d, %v", sv.TotalFlow(), sv.TotalCost())
	}
}

func TestAugmentBelowStopsAtBound(t *testing.T) {
	// Two unit paths: costs 0.4 and 0.9. With bound 0.5 only the cheap one
	// is taken; a second call reports the rejected cost.
	g := NewGraph(4)
	g.AddArc(0, 1, 1, 0.4)
	g.AddArc(1, 3, 1, 0)
	g.AddArc(0, 2, 1, 0.9)
	g.AddArc(2, 3, 1, 0)
	sv := NewSolver(g, 0, 3)
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
	g := NewGraph(5)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(1, 2, 1, 1)
	g.AddArc(0, 3, 1, 5)
	g.AddArc(3, 4, 1, 0)
	sv := NewSolver(g, 0, 2)
	if units, cost, ok := sv.Augment(1); !ok || units != 1 || cost != 2 {
		t.Fatalf("Augment = (%d, %v, %v), want (1, 2, true)", units, cost, ok)
	}
	// Pops 0, 1 and the sink; scans 0's two arcs and 1's two.
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
	if _, _, ok := sv.Augment(1); ok {
		t.Fatal("augmented a saturated network")
	}
	if pops, scans := sv.SearchStats(); pops != 6 || scans != 9 {
		t.Fatalf("after both searches: pops=%d scans=%d, want 6 and 9", pops, scans)
	}
}
