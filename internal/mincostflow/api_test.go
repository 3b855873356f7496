package mincostflow

import (
	"math"
	"slices"
	"testing"
)

func TestGraphAccessors(t *testing.T) {
	g := NewGraph(3)
	if g.numNodes != 3 || len(g.to)/2 != 0 {
		t.Fatalf("fresh graph: nodes=%d arcs=%d", g.numNodes, len(g.to)/2)
	}
	g.AddArc(0, 1, 2, 0.5)
	g.AddArc(1, 2, 1, 0.25)
	if len(g.to)/2 != 2 {
		t.Fatalf("arcs = %d", len(g.to)/2)
	}
	sv := NewSolver(g, 0, 2)
	flow, cost := minCostFlow(sv, math.MaxInt64)
	if flow != 1 || math.Abs(cost-0.75) > 1e-12 {
		t.Fatalf("flow=%d cost=%v", flow, cost)
	}
	if sv.TotalFlow() != 1 || math.Abs(flowCost(sv.g)-0.75) > 1e-12 {
		t.Fatalf("totals = %d, %v", sv.TotalFlow(), flowCost(sv.g))
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
	if units, cost, ok := sv.AugmentBelow(1, math.Inf(1)); !ok || units != 1 || cost != 2 {
		t.Fatalf("Augment = (%d, %v, %v), want (1, 2, true)", units, cost, ok)
	}
	// Pops 0, 1 and the sink. Scans 0's arcs by cost: 0 -> 1 sets the
	// sink bound 2, and 0 -> 3 (cost 5) ends the scan; then 1's two.
	if st := sv.SearchStats(); st.Pops != 3 || st.ArcScans != 4 {
		t.Fatalf("first search: pops=%d scans=%d, want 3 and 4", st.Pops, st.ArcScans)
	}
	// Settled nodes advance by their distance; node 3 (tentative 5) and
	// node 4 (never reached) by the sink's distance 2.
	want := []float64{0, 1, 2, 2, 2}
	if got := sv.Potentials(); !slices.Equal(got, want) {
		t.Fatalf("potentials = %v, want %v", got, want)
	}
	// The sink is cut off: the second search exhausts the dead branch.
	if _, _, ok := sv.AugmentBelow(1, math.Inf(1)); ok {
		t.Fatal("augmented a saturated network")
	}
	if st := sv.SearchStats(); st.Pops != 6 || st.ArcScans != 9 {
		t.Fatalf("after both searches: pops=%d scans=%d, want 6 and 9", st.Pops, st.ArcScans)
	}
}

func TestSearchSkipsArcsPastSinkBound(t *testing.T) {
	// Node 1 reaches the sink 5 through 2, 3 or 4 at rising costs 1, 2, 3.
	// Its arcs are scanned cheapest first, and once the bound on the
	// sink's distance is known the costlier ones cannot beat it.
	g := NewGraph(6)
	src := g.AddArc(0, 1, 3, 0)
	mid := []ArcID{g.AddArc(1, 2, 1, 1), g.AddArc(1, 3, 1, 2), g.AddArc(1, 4, 1, 3)}
	for w := 2; w <= 4; w++ {
		g.AddArc(w, 5, 1, 0)
	}
	sv := NewSolver(g, 0, 5)
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
		if st := sv.SearchStats(); st.Pops != want.pops || st.ArcScans != want.scans {
			t.Fatalf("step %d: pops=%d scans=%d, want %d and %d", i, st.Pops, st.ArcScans, want.pops, want.scans)
		}
		for j, a := range mid {
			if f := g.Flow(a); f != want.flows[j] {
				t.Fatalf("step %d: flow on 1 -> %d is %d, want %d", i, j+2, f, want.flows[j])
			}
		}
		if f := g.Flow(src); f != int64(i+1) {
			t.Fatalf("step %d: source arc carries %d", i, f)
		}
		if got := sv.Potentials(); !slices.Equal(got, want.pot) {
			t.Fatalf("step %d: potentials = %v, want %v", i, got, want.pot)
		}
	}
}

func TestAugmentPathsCertifiesSeveral(t *testing.T) {
	// TestSearchSkipsArcsPastSinkBound's network: 1 reaches the sink 5
	// through 2, 3 or 4 at rising costs 1, 2, 3, and the source arc carries
	// 3. One search pushes all three paths, cheapest first: each candidate's
	// tree path is intact when it pops, and nothing broke before it.
	g := NewGraph(6)
	g.AddArc(0, 1, 3, 0)
	mid := []ArcID{g.AddArc(1, 2, 1, 1), g.AddArc(1, 3, 1, 2), g.AddArc(1, 4, 1, 3)}
	for w := 2; w <= 4; w++ {
		g.AddArc(w, 5, 1, 0)
	}
	sv := NewSolver(g, 0, 5)
	units, more := sv.AugmentPaths(math.MaxInt64, math.Inf(1))
	if units != 3 || more {
		t.Fatalf("AugmentPaths = (%d, %v), want (3, false)", units, more)
	}
	for j, a := range mid {
		if g.Flow(a) != 1 {
			t.Fatalf("flow on 1 -> %d is %d, want 1", j+2, g.Flow(a))
		}
	}
	if st := sv.SearchStats(); st.Searches != 1 || st.Paths != 3 {
		t.Fatalf("searches=%d paths=%d, want 1 and 3", st.Searches, st.Paths)
	}
	// The heap ran dry at key 3: every node advances by its distance and
	// the sink by 3.
	if got, want := sv.Potentials(), []float64{0, 0, 1, 2, 3, 3}; !slices.Equal(got, want) {
		t.Fatalf("potentials = %v, want %v", got, want)
	}
}

func TestAugmentPathsStopsAtBrokenCandidate(t *testing.T) {
	// s=0 feeds a=1 and b=2 one unit each. a -> u=3 costs 0, b -> u 0.1 and
	// a -> w=4 0.5; u's sink arc carries 2 and w's 1. The first search
	// pushes s-a-u-t at cost 0. That saturates u's tree path while u's sink
	// arc keeps a unit, so u is broken: its cheapest residual in-arc b -> u
	// bounds every later path through u by 0 + 0.1, and w, at 0.5, is not
	// certified. The batch ends at H = 0.1 and lifts u by H - L(u) = 0.1.
	g := NewGraph(6)
	g.AddArc(0, 1, 1, 0)
	g.AddArc(0, 2, 1, 0)
	au := g.AddArc(1, 3, 1, 0)
	bu := g.AddArc(2, 3, 1, 0.1)
	aw := g.AddArc(1, 4, 1, 0.5)
	g.AddArc(3, 5, 2, 0)
	g.AddArc(4, 5, 1, 0)
	sv := NewSolver(g, 0, 5)
	if units, more := sv.AugmentPaths(math.MaxInt64, math.Inf(1)); units != 1 || !more {
		t.Fatalf("first AugmentPaths = (%d, %v), want (1, true)", units, more)
	}
	if got, want := sv.Potentials(), []float64{0, 0, 0, 0.1, 0.1, 0.1}; !slices.Equal(got, want) {
		t.Fatalf("potentials = %v, want %v", got, want)
	}
	// The second search finds s-b-u-t at reduced cost 0 (true cost 0.1),
	// which saturates the source. It then reaches w through u -> a, whose
	// tree path that push broke: w is a broken candidate, so the batch
	// cannot tell that the sink is cut off, and a third search proves it.
	if units, more := sv.AugmentPaths(math.MaxInt64, math.Inf(1)); units != 1 || !more {
		t.Fatalf("second AugmentPaths = (%d, %v), want (1, true)", units, more)
	}
	if units, more := sv.AugmentPaths(math.MaxInt64, math.Inf(1)); units != 0 || more {
		t.Fatalf("third AugmentPaths = (%d, %v), want (0, false)", units, more)
	}
	if g.Flow(au) != 1 || g.Flow(bu) != 1 || g.Flow(aw) != 0 {
		t.Fatalf("flows a-u %d, b-u %d, a-w %d; want 1, 1, 0", g.Flow(au), g.Flow(bu), g.Flow(aw))
	}
	if st := sv.SearchStats(); st.Searches != 3 || st.Paths != 2 {
		t.Fatalf("searches=%d paths=%d, want 3 and 2", st.Searches, st.Paths)
	}
}

func TestAugmentPathsBounds(t *testing.T) {
	// TestAugmentBelowStopsAtBound's two unit paths, costs 0.4 and 0.9.
	g := NewGraph(4)
	g.AddArc(0, 1, 1, 0.4)
	g.AddArc(1, 3, 1, 0)
	g.AddArc(0, 2, 1, 0.9)
	g.AddArc(2, 3, 1, 0)
	sv := NewSolver(g, 0, 3)
	// The cost bound stops the batch at the certified 0.9 path, and proves
	// that nothing below it is left.
	if units, more := sv.AugmentPaths(10, 0.5); units != 1 || more {
		t.Fatalf("bound 0.5: (%d, %v), want (1, false)", units, more)
	}
	if units, more := sv.AugmentPaths(10, 0.5); units != 0 || more {
		t.Fatalf("bound 0.5 again: (%d, %v), want (0, false)", units, more)
	}
	if units, more := sv.AugmentPaths(0, 1); units != 0 || more {
		t.Fatalf("zero maxUnits: (%d, %v), want (0, false)", units, more)
	}
	if units, more := sv.AugmentPaths(10, 1); units != 1 || more {
		t.Fatalf("bound 1: (%d, %v), want (1, false)", units, more)
	}
	// maxUnits ends a batch that could go on.
	g = NewGraph(4)
	g.AddArc(0, 1, 1, 0.4)
	g.AddArc(1, 3, 1, 0)
	g.AddArc(0, 2, 1, 0.9)
	g.AddArc(2, 3, 1, 0)
	sv = NewSolver(g, 0, 3)
	if units, more := sv.AugmentPaths(1, math.Inf(1)); units != 1 || !more {
		t.Fatalf("maxUnits 1: (%d, %v), want (1, true)", units, more)
	}
}
