package mincostflow

import (
	"math"
	"math/rand"
	"testing"
)

// The potential invariant behind SSPA: after every search-and-update step
// (AugmentPaths, the one-path AugmentBelow, RetreatAbove) every arc with positive residual
// capacity has reduced cost cost(a) + pot(from) - pot(to) >= 0. These
// tests check it step by step, and check each step's flow against an
// independent oracle, on zero-cost, negative-cost and warm-restored
// networks. Costs are multiples of 1/1024 so flow costs are exact sums and
// ties between paths are real ties.

// arcSpec and netSpec describe a network so it can be rebuilt fresh for
// each oracle call (both solvers mutate the graph they run on).
type arcSpec struct {
	from, to int
	cap      int64
	cost     float64
}

type netSpec struct {
	n, s, t int
	arcs    []arcSpec
	phi     []float64 // cost offsets: arcs cost base + phi[from] - phi[to]
}

func (ns *netSpec) build() *Graph {
	g := AcquireGraph(ns.n)
	for _, a := range ns.arcs {
		g.AddArc(a.from, a.to, a.cap, a.cost)
	}
	return g
}

// oracle returns CycleCanceling's minimum-cost flow of the given amount.
func (ns *netSpec) oracle(t testing.TB, amount int64) (int64, float64) {
	t.Helper()
	flow, cost, err := CycleCanceling(ns.build(), ns.s, ns.t, amount)
	if err != nil {
		t.Fatal(err)
	}
	return flow, cost
}

// checkStep asserts the potential invariant and that the solver's current
// flow is a minimum-cost flow of its amount.
func checkStep(t testing.TB, ns *netSpec, sv *Solver, step string) {
	t.Helper()
	checkPotentials(t, sv, step)
	flow, cost := ns.oracle(t, sv.TotalFlow())
	if flow != sv.TotalFlow() || math.Abs(cost-flowCost(sv.g)) > 1e-9 {
		t.Fatalf("%s: flow %d cost %v, oracle flow %d cost %v",
			step, sv.TotalFlow(), flowCost(sv.g), flow, cost)
	}
}

// checkPotentials asserts that every positive-residual arc has a
// non-negative reduced cost (up to float noise).
func checkPotentials(t testing.TB, sv *Solver, step string) {
	t.Helper()
	g := sv.g
	for a := range g.to {
		if g.cap[a] <= 0 {
			continue
		}
		v := g.to[a^1]
		if rc := g.cost[a] + sv.pot[v] - sv.pot[g.to[a]]; rc < -1e-9 {
			t.Fatalf("%s: arc %d->%d has reduced cost %v", step, v, g.to[a], rc)
		}
	}
}

// checkRetreatDone asserts that a RetreatAbove phase stopped where it
// should: the last unit still in the flow costs less than bound, so
// retreating it would refund less than bound.
func checkRetreatDone(t testing.TB, ns *netSpec, sv *Solver, bound float64) {
	t.Helper()
	k := sv.TotalFlow()
	if k == 0 {
		return
	}
	_, prev := ns.oracle(t, k-1)
	if last := flowCost(sv.g) - prev; last >= bound+1e-9 {
		t.Fatalf("retreat stopped at flow %d, whose last unit costs %v >= bound %v", k, last, bound)
	}
}

// randomNet draws a random directed network on n nodes with source 0 and
// sink n-1. Arc costs are base + phi[from] - phi[to] with base >= 0, so
// every cycle costs sum(base) >= 0: with phi != 0 arcs can be negative
// while the network admits no negative cycle. zeroBias is the share of
// arcs whose base cost is exactly zero.
func randomNet(rng *rand.Rand, n int, negative bool, zeroBias float64) *netSpec {
	phi := make([]float64, n)
	if negative {
		for i := range phi {
			phi[i] = float64(rng.Intn(2048)) / 1024
		}
	}
	ns := &netSpec{n: n, s: 0, t: n - 1, phi: phi}
	m := n + rng.Intn(3*n)
	for i := 0; i < m; i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from == to {
			continue
		}
		base := 0.0
		if rng.Float64() >= zeroBias {
			base = float64(rng.Intn(1024)) / 1024
		}
		ns.arcs = append(ns.arcs, arcSpec{from, to, 1 + int64(rng.Intn(3)), base + phi[from] - phi[to]})
	}
	return ns
}

// sweepPaths pushes flow in AugmentPaths batches below bound until a
// batch reports that none is left, checking the state after every batch.
func sweepPaths(t testing.TB, ns *netSpec, sv *Solver, bound float64) {
	t.Helper()
	for more := true; more; {
		var units int64
		if units, more = sv.AugmentPaths(math.MaxInt64, bound); units > 0 {
			checkStep(t, ns, sv, "batch")
		} else if more {
			t.Fatal("a batch that pushed nothing asked for another")
		}
	}
}

// checkOnePath asserts that sv's flow has the amount and cost of the
// one-path oracle's sweep below bound on a fresh copy of the network.
func checkOnePath(t testing.TB, ns *netSpec, sv *Solver, bound float64) {
	t.Helper()
	one := AcquireSolver(ns.build(), ns.s, ns.t)
	for {
		if _, _, ok := one.AugmentBelow(math.MaxInt64, bound); !ok {
			break
		}
	}
	if one.TotalFlow() != sv.TotalFlow() || math.Abs(flowCost(one.g)-flowCost(sv.g)) > 1e-9 {
		t.Fatalf("bound %v: flow %d cost %v, one-path oracle flow %d cost %v",
			bound, sv.TotalFlow(), flowCost(sv.g), one.TotalFlow(), flowCost(one.g))
	}
}

// driveCold pushes flow until the sink is cut off, checking every step. It
// alternates AugmentPaths batches of at most 1, 2 or unbounded units with
// one-path steps of 1 or 2 units, so each hands its potentials to the
// other.
func driveCold(t *testing.T, rng *rand.Rand, ns *netSpec, sv *Solver) {
	for step := 0; ; step++ {
		var units int64
		if step%2 == 0 {
			units, _ = sv.AugmentPaths([]int64{1, 2, math.MaxInt64}[rng.Intn(3)], math.Inf(1))
		} else {
			units, _, _ = sv.AugmentBelow(1+int64(rng.Intn(2)), math.Inf(1))
		}
		if units == 0 {
			break
		}
		checkStep(t, ns, sv, "augment")
	}
	if maxFlow, _ := ns.oracle(t, math.MaxInt64); sv.TotalFlow() != maxFlow {
		t.Fatalf("stopped at flow %d, max flow is %d", sv.TotalFlow(), maxFlow)
	}
}

func TestPotentialInvariantZeroCost(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		ns := randomNet(rng, 3+rng.Intn(8), false, 0.5)
		sv := AcquireSolver(ns.build(), ns.s, ns.t)
		driveCold(t, rng, ns, sv)
	}
}

func TestPotentialInvariantNegativeCost(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 150; trial++ {
		ns := randomNet(rng, 3+rng.Intn(8), true, 0.2)
		sv := AcquireSolver(ns.build(), ns.s, ns.t)
		checkStep(t, ns, sv, "bellman-ford bootstrap")
		driveCold(t, rng, ns, sv)
	}
}

// TestPotentialInvariantBruteForce checks the GEACC shape — zero-cost
// source and sink arcs, unit pair arcs — against exhaustive enumeration
// after every AugmentPaths batch, with many exactly tied pair costs.
func TestPotentialInvariantBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		nv, nu := 1+rng.Intn(3), 1+rng.Intn(4)
		capV, capU := make([]int64, nv), make([]int64, nu)
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
				cost[v][u] = float64(rng.Intn(4)) / 4
			}
		}
		g, s, tt := buildBipartite(nv, nu, capV, capU, cost)
		sv := AcquireSolver(g, s, tt)
		for more := true; more; {
			var units int64
			if units, more = sv.AugmentPaths(math.MaxInt64, math.Inf(1)); units == 0 {
				break
			}
			k := sv.TotalFlow()
			if want := bruteMinCost(nv, nu, capV, capU, cost, int(k)); math.Abs(flowCost(sv.g)-want) > 1e-9 {
				t.Fatalf("trial %d k=%d: cost %v, brute force %v", trial, k, flowCost(sv.g), want)
			}
			checkPotentials(t, sv, "bipartite augment")
		}
	}
}

// TestPotentialInvariantWarm restores a previous solve's flow onto a
// network with perturbed costs and extra arcs (PushFlow + WarmStart), then
// retreats and augments under a cost bound, checking every step.
func TestPotentialInvariantWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 150; trial++ {
		ns := randomNet(rng, 3+rng.Intn(8), trial%2 == 1, 0.3)
		g0 := ns.build()
		sv0 := AcquireSolver(g0, ns.s, ns.t)
		minCostFlow(sv0, 1+rng.Int63n(6))
		prevPot := sv0.Potentials(nil)

		// Delta: re-cost some arcs (keeping every cycle non-negative by
		// only raising costs) and append a few new ones. Arc ids of the
		// surviving arcs are unchanged, so the old flow restores exactly.
		ns2 := &netSpec{n: ns.n, s: ns.s, t: ns.t, phi: ns.phi, arcs: append([]arcSpec(nil), ns.arcs...)}
		for i := range ns2.arcs {
			if rng.Intn(4) == 0 {
				ns2.arcs[i].cost += float64(rng.Intn(1024)) / 1024
			}
		}
		for k := rng.Intn(4); k > 0; k-- {
			from, to := rng.Intn(ns.n), rng.Intn(ns.n)
			if from != to {
				base := float64(rng.Intn(1024)) / 1024
				ns2.arcs = append(ns2.arcs, arcSpec{from, to, 1 + int64(rng.Intn(2)), base + ns.phi[from] - ns.phi[to]})
			}
		}
		g := ns2.build()
		for i := range ns.arcs {
			if f := g0.Flow(ArcID(2 * i)); f > 0 && !g.PushFlow(ArcID(2*i), f) {
				t.Fatalf("trial %d: restore of arc %d failed", trial, i)
			}
		}
		sv := AcquireSolver(g, ns2.s, ns2.t)
		if st := sv.WarmStart(g, ns2.s, ns2.t, prevPot); !st.OK {
			t.Fatalf("trial %d: WarmStart did not converge", trial)
		}
		checkStep(t, ns2, sv, "warm start")
		bound := float64(rng.Intn(2048)) / 1024
		for {
			if _, ok := sv.RetreatAbove(bound); !ok {
				break
			}
			checkStep(t, ns2, sv, "retreat")
		}
		checkRetreatDone(t, ns2, sv, bound)
		sweepPaths(t, ns2, sv, bound)
		if _, cost, ok := sv.AugmentBelow(1, bound); ok {
			t.Fatalf("trial %d: the batches stopped, but a path of cost %v < %v is left", trial, cost, bound)
		}
	}
}

// TestPotentialInvariantQuantizedGEACC runs the cold sweep on s -> V -> U
// -> t networks of the GEACC reduction's shape (8 events, 40 users,
// capacities 1-4, zero-cost source and sink arcs, unit pair arcs added in
// core's order) whose pair costs are multiples of 1/4. An event's sorted
// pair arcs then come in runs of dozens of equal costs, so the bounded
// scan stops inside a run, where the order of scans decides between
// equally short paths. Every augmentation is checked against
// CycleCanceling and the potential invariant.
func TestPotentialInvariantQuantizedGEACC(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const nv, nu = 8, 40
	for trial := 0; trial < 12; trial++ {
		ns := &netSpec{n: nv + nu + 2, s: 0, t: nv + nu + 1}
		for v := 0; v < nv; v++ {
			ns.arcs = append(ns.arcs, arcSpec{ns.s, 1 + v, 1 + int64(rng.Intn(4)), 0})
		}
		for u := 0; u < nu; u++ {
			ns.arcs = append(ns.arcs, arcSpec{1 + nv + u, ns.t, 1 + int64(rng.Intn(4)), 0})
		}
		for v := 0; v < nv; v++ {
			for u := 0; u < nu; u++ {
				if rng.Intn(5) > 0 {
					ns.arcs = append(ns.arcs, arcSpec{1 + v, 1 + nv + u, 1, float64(rng.Intn(4)) / 4})
				}
			}
		}
		sv := AcquireSolver(ns.build(), ns.s, ns.t)
		sweepPaths(t, ns, sv, math.Inf(1))
		checkOnePath(t, ns, sv, math.Inf(1))
		if maxFlow, _ := ns.oracle(t, math.MaxInt64); sv.TotalFlow() != maxFlow {
			t.Fatalf("trial %d: stopped at flow %d, max flow is %d", trial, sv.TotalFlow(), maxFlow)
		}
	}
}
