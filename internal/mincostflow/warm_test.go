package mincostflow

import (
	"math"
	"math/rand"
	"testing"
)

func TestPushFlowAndClearFlow(t *testing.T) {
	g := AcquireGraph(3)
	a := g.AddArc(0, 1, 2, 0.5)
	b := g.AddArc(1, 2, 1, 0.25)
	if !g.PushFlow(a, 2) || !g.PushFlow(b, 1) {
		t.Fatal("PushFlow rejected pushes within capacity")
	}
	if g.Flow(a) != 2 || g.Flow(b) != 1 {
		t.Fatalf("flows after push: %d, %d", g.Flow(a), g.Flow(b))
	}
	if g.PushFlow(a, 1) {
		t.Fatal("PushFlow exceeded capacity")
	}
	if g.PushFlow(a, 0) || g.PushFlow(a, -1) {
		t.Fatal("PushFlow accepted non-positive units")
	}
	g.ClearFlow()
	if g.Flow(a) != 0 || g.Flow(b) != 0 {
		t.Fatalf("flows after ClearFlow: %d, %d", g.Flow(a), g.Flow(b))
	}
	if g.cap[int32(a)] != 2 || g.cap[int32(b)] != 1 {
		t.Fatal("ClearFlow did not restore capacities")
	}
}

// TestWarmStartRepairsNegativeCycle restores a flow that the delta made
// suboptimal: a new event v3 offers a much cheaper assignment into a
// saturated user, forming a negative-cost residual cycle through the
// restored flow. WarmStart must cancel it and land on the true optimum.
func TestWarmStartRepairsNegativeCycle(t *testing.T) {
	// s=0, v1=1, v2=2, v3=3, u1=4, t=5. Previous solve (without v3) had
	// both v1 and v2 assigned to u1 (cap 2).
	g := AcquireGraph(6)
	sv1 := g.AddArc(0, 1, 1, 0)
	sv2 := g.AddArc(0, 2, 1, 0)
	g.AddArc(0, 3, 1, 0)
	p1 := g.AddArc(1, 4, 1, 0.40)
	p2 := g.AddArc(2, 4, 1, 0.45)
	p3 := g.AddArc(3, 4, 1, 0.10)
	ut := g.AddArc(4, 5, 2, 0)
	for _, id := range []ArcID{sv1, p1, sv2, p2} {
		if !g.PushFlow(id, 1) {
			t.Fatal("restore push failed")
		}
	}
	if !g.PushFlow(ut, 2) {
		t.Fatal("restore push failed")
	}
	sv := AcquireSolver(g, 0, 5)
	st := sv.WarmStart(g, 0, 5, nil)
	if !st.OK {
		t.Fatal("WarmStart did not converge")
	}
	if st.CyclesCanceled == 0 {
		t.Fatal("expected at least one negative cycle canceled")
	}
	if st.RestoredFlow != 2 {
		t.Fatalf("restored flow = %d, want 2", st.RestoredFlow)
	}
	if math.Abs(flowCost(sv.g)-0.50) > 1e-12 {
		t.Fatalf("repaired cost = %v, want 0.50", flowCost(sv.g))
	}
	if g.Flow(p1) != 1 || g.Flow(p2) != 0 || g.Flow(p3) != 1 {
		t.Fatalf("repaired support wrong: p1=%d p2=%d p3=%d",
			g.Flow(p1), g.Flow(p2), g.Flow(p3))
	}
	// Nothing further to push below bound 1: v2's path costs 0.45 < 1, so
	// one more unit is still profitable (u1 has no capacity left though).
	if _, _, ok := sv.AugmentBelow(math.MaxInt64, 1); ok {
		t.Fatal("no augmenting path should remain")
	}
}

// bipartite test fixture: s=0, events 1..nv, users nv+1..nv+nu, t=nv+nu+1,
// with the GEACC cost shape (source/sink arcs cost 0, pair arcs in (0,1)).
type warmNet struct {
	nv, nu   int
	userCap  []int64
	cost     [][]float64 // cost[v][u] < 0 means the pair arc is absent
	pairArcs [][]ArcID
	srcArcs  []ArcID
}

func (w *warmNet) build() (*Graph, int, int) {
	s, t := 0, w.nv+w.nu+1
	g := AcquireGraph(w.nv + w.nu + 2)
	w.srcArcs = make([]ArcID, w.nv)
	for v := 0; v < w.nv; v++ {
		w.srcArcs[v] = g.AddArc(s, 1+v, 1, 0)
	}
	for u := 0; u < w.nu; u++ {
		g.AddArc(1+w.nv+u, t, w.userCap[u], 0)
	}
	w.pairArcs = make([][]ArcID, w.nv)
	for v := 0; v < w.nv; v++ {
		w.pairArcs[v] = make([]ArcID, w.nu)
		for u := 0; u < w.nu; u++ {
			w.pairArcs[v][u] = -1
			if w.cost[v][u] >= 0 {
				w.pairArcs[v][u] = g.AddArc(1+v, 1+w.nv+u, 1, w.cost[v][u])
			}
		}
	}
	return g, s, t
}

func solveGEACC(g *Graph, sv *Solver) {
	for {
		if _, _, ok := sv.AugmentBelow(math.MaxInt64, 1); !ok {
			return
		}
	}
}

// TestWarmMatchesColdRandomDeltas runs random delta streams: solve cold,
// perturb the network (new users, changed costs, removed events), restore
// the surviving flow, warm-start, retreat+augment, and check the result is
// the same flow the cold path finds on the perturbed network.
func TestWarmMatchesColdRandomDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		nv, nu := 2+rng.Intn(6), 2+rng.Intn(8)
		w := &warmNet{nv: nv, nu: nu, userCap: make([]int64, nu), cost: make([][]float64, nv)}
		for u := range w.userCap {
			w.userCap[u] = int64(1 + rng.Intn(3))
		}
		for v := range w.cost {
			w.cost[v] = make([]float64, nu)
			for u := range w.cost[v] {
				w.cost[v][u] = rng.Float64() // in (0,1): all pairs present
			}
		}
		g0, s0, t0 := w.build()
		sv0 := AcquireSolver(g0, s0, t0)
		solveGEACC(g0, sv0)
		prevPot := sv0.Potentials(nil)
		type pair struct{ v, u int }
		var prevFlow []pair
		for v := 0; v < nv; v++ {
			for u := 0; u < nu; u++ {
				if g0.Flow(w.pairArcs[v][u]) == 1 {
					prevFlow = append(prevFlow, pair{v, u})
				}
			}
		}

		// Delta: perturb a few costs, add a user, maybe drop an event
		// (simulated by zeroing its pair arcs out of the new network).
		w2 := &warmNet{nv: nv, nu: nu + 1, userCap: append(append([]int64{}, w.userCap...), int64(1+rng.Intn(2)))}
		dropped := -1
		if rng.Intn(3) == 0 {
			dropped = rng.Intn(nv)
		}
		w2.cost = make([][]float64, nv)
		for v := 0; v < nv; v++ {
			w2.cost[v] = make([]float64, nu+1)
			for u := 0; u <= nu; u++ {
				switch {
				case v == dropped:
					w2.cost[v][u] = -1 // event gone: no arcs
				case u == nu || rng.Intn(10) == 0:
					w2.cost[v][u] = rng.Float64()
				default:
					w2.cost[v][u] = w.cost[v][u]
				}
			}
		}

		// Cold reference on the perturbed network.
		gc, sc, tc := (&warmNet{nv: w2.nv, nu: w2.nu, userCap: w2.userCap, cost: w2.cost}).build()
		svc := AcquireSolver(gc, sc, tc)
		solveGEACC(gc, svc)

		// Warm path: restore surviving flow where cost is unchanged.
		gw, sw, tw := w2.build()
		for _, p := range prevFlow {
			if p.v == dropped || w2.cost[p.v][p.u] != w.cost[p.v][p.u] {
				continue
			}
			srcA, pairA := w2.srcArcs[p.v], w2.pairArcs[p.v][p.u]
			sinkA := ArcID(2 * (w2.nv + p.u)) // user arcs added in u order after source arcs
			if gw.cap[int32(srcA)] > 0 && gw.cap[int32(pairA)] > 0 && gw.cap[int32(sinkA)] > 0 {
				gw.PushFlow(srcA, 1)
				gw.PushFlow(pairA, 1)
				gw.PushFlow(sinkA, 1)
			}
		}
		// Remap potentials: users shifted by zero (same indices), but t
		// moved from nv+nu+1 to nv+nu+2 and the new user has none.
		potInit := make([]float64, w2.nv+w2.nu+2)
		copy(potInit[:1+nv+nu], prevPot[:1+nv+nu])
		potInit[w2.nv+w2.nu+1] = prevPot[nv+nu+1]
		svw := AcquireSolver(gw, sw, tw)
		st := svw.WarmStart(gw, sw, tw, potInit)
		if !st.OK {
			t.Fatalf("trial %d: WarmStart failed to converge", trial)
		}
		for {
			if _, ok := svw.RetreatAbove(1); !ok {
				break
			}
		}
		solveGEACC(gw, svw)

		if svw.TotalFlow() != svc.TotalFlow() {
			t.Fatalf("trial %d: warm flow %d != cold flow %d", trial, svw.TotalFlow(), svc.TotalFlow())
		}
		if math.Abs(flowCost(svw.g)-flowCost(svc.g)) > 1e-9 {
			t.Fatalf("trial %d: warm cost %v != cold cost %v", trial, flowCost(svw.g), flowCost(svc.g))
		}
		for v := 0; v < w2.nv; v++ {
			for u := 0; u < w2.nu; u++ {
				wa := w2.pairArcs[v][u]
				if wa < 0 {
					continue
				}
				if gw.Flow(wa) != gc.Flow(wa) {
					t.Fatalf("trial %d: pair (%d,%d) warm flow %d != cold %d",
						trial, v, u, gw.Flow(wa), gc.Flow(wa))
				}
			}
		}
	}
}
