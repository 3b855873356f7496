package core

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/mincostflow"
)

func TestGreedyEmptyAndDegenerate(t *testing.T) {
	empty, err := NewMatrixInstance(nil, nil, nil, [][]float64{})
	if err != nil {
		t.Fatal(err)
	}
	if m := Greedy(empty); m.Size() != 0 {
		t.Error("greedy on empty instance")
	}
	zeroCaps, err := NewMatrixInstance(
		[]Event{{Cap: 0}}, []User{{Cap: 0}}, nil, [][]float64{{0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if m := Greedy(zeroCaps); m.Size() != 0 {
		t.Error("greedy matched despite zero capacities")
	}
	allZeroSim, err := NewMatrixInstance(
		[]Event{{Cap: 2}}, []User{{Cap: 2}}, nil, [][]float64{{0}})
	if err != nil {
		t.Fatal(err)
	}
	if m := Greedy(allZeroSim); m.Size() != 0 {
		t.Error("greedy matched a zero-similarity pair")
	}
}

func TestGreedyPicksGloballyBestFirst(t *testing.T) {
	// With all capacities 1 and no conflicts, greedy must take pairs in
	// global similarity order: (v0,u1)=0.9 then (v1,u0)=0.6 — not
	// (v0,u0)=0.8 which would block the 0.9.
	in, err := NewMatrixInstance(
		[]Event{{Cap: 1}, {Cap: 1}},
		[]User{{Cap: 1}, {Cap: 1}},
		nil,
		[][]float64{{0.8, 0.9}, {0.6, 0.5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	m := Greedy(in)
	if !m.Contains(0, 1) || !m.Contains(1, 0) {
		t.Fatalf("greedy order wrong: %v", m.SortedPairs())
	}
	if got := m.MaxSum(); abs(got-1.5) > 1e-12 {
		t.Fatalf("MaxSum = %v", got)
	}
}

func TestGreedyHonorsConflictsAcrossHeapPushes(t *testing.T) {
	// u0 takes v0 (0.9); v1 conflicts with v0, so u0 must skip v1 (0.8)
	// and u1 picks it up instead.
	in, err := NewMatrixInstance(
		[]Event{{Cap: 1}, {Cap: 1}},
		[]User{{Cap: 2}, {Cap: 1}},
		conflict.FromPairs(2, [][2]int{{0, 1}}),
		[][]float64{{0.9, 0.1}, {0.8, 0.7}},
	)
	if err != nil {
		t.Fatal(err)
	}
	m := Greedy(in)
	mustValidate(t, in, m, "greedy")
	if !m.Contains(0, 0) || !m.Contains(1, 1) || m.Size() != 2 {
		t.Fatalf("greedy result %v", m.SortedPairs())
	}
}

func TestGreedyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	in := randVectorInstance(rng, 5, 12, 3, 4, 3, 0.4)
	a := Greedy(in).SortedPairs()
	b := Greedy(in).SortedPairs()
	if len(a) != len(b) {
		t.Fatal("nondeterministic size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic matching")
		}
	}
}

func TestMinCostFlowEmptyAndZeroCap(t *testing.T) {
	empty, err := NewMatrixInstance(nil, nil, nil, [][]float64{})
	if err != nil {
		t.Fatal(err)
	}
	res := MinCostFlowOpts(empty, FlowOptions{})
	if res.Matching.Size() != 0 || res.Delta != 0 {
		t.Error("mincostflow on empty instance")
	}
	zeroCap, err := NewMatrixInstance(
		[]Event{{Cap: 0}}, []User{{Cap: 3}}, nil, [][]float64{{0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if m := MinCostFlowOpts(zeroCap, FlowOptions{}).Matching; m.Size() != 0 {
		t.Error("flow through zero-capacity event")
	}
}

func TestMinCostFlowDeltaWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		in := randMatrixInstance(rng, 1+rng.Intn(4), 1+rng.Intn(6), 3, 3, rng.Float64())
		res := MinCostFlowOpts(in, FlowOptions{})
		deltaMax := maxDelta(in)
		if res.Delta < 0 || res.Delta > deltaMax {
			t.Fatalf("Delta = %d outside [0, %d]", res.Delta, deltaMax)
		}
		// The network has arcs for sim > 0 pairs only, so every unit of Δ
		// lands on a pair the relaxed matching keeps.
		if int64(res.Relaxed.Size()) != res.Delta {
			t.Fatalf("relaxed matching has %d pairs, flow amount %d", res.Relaxed.Size(), res.Delta)
		}
	}
}

func TestMinCostFlowRelaxedMatchesFullSweep(t *testing.T) {
	// The incremental early-stop must find the same MaxSum(M∅) as the
	// paper's literal sweep over all Δ (reconstructed here by solving a
	// fresh min-cost flow of every amount on the dense network, zero-sim
	// arcs included).
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		in := randMatrixInstance(rng, 1+rng.Intn(3), 1+rng.Intn(4), 2, 2, 0)
		got := RelaxedUpperBound(in)
		want := sweepRelaxedMaxSum(in)
		if abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: incremental %v != full sweep %v", trial, got, want)
		}
	}
	// Mostly-zero instances: the solver builds arcs for the few positive
	// pairs only, the oracle the paper's |V|·|U| arcs.
	for trial := 0; trial < 15; trial++ {
		in := sparseMatrixInstance(rng, 2+rng.Intn(3), 3+rng.Intn(5), 3, 3, 0.65)
		got := RelaxedUpperBound(in)
		want := sweepRelaxedMaxSum(in)
		if abs(got-want) > 1e-9 {
			t.Fatalf("sparse trial %d: incremental %v != full sweep %v", trial, got, want)
		}
	}
}

// sweepRelaxedMaxSum reproduces lines 3-7 of Algorithm 1 literally: for each
// Δ in [1, Δmax], compute a fresh min-cost flow of amount Δ and take the best
// Δ − cost(Δ). Used only as a test oracle.
func sweepRelaxedMaxSum(in *Instance) float64 {
	deltaMax := maxDelta(in)
	best := 0.0
	for delta := int64(1); delta <= deltaMax; delta++ {
		maxSum, ok := relaxedAtDelta(in, delta)
		if !ok {
			break
		}
		if maxSum > best {
			best = maxSum
		}
	}
	return best
}

// relaxedAtDelta computes, from scratch, a minimum-cost flow of exactly
// delta units on the Algorithm 1 network and returns Δ − cost(Δ). ok is
// false when delta units are infeasible.
func relaxedAtDelta(in *Instance, delta int64) (float64, bool) {
	nv, nu := in.NumEvents(), in.NumUsers()
	s, t := 0, 1+nv+nu
	g := mincostflow.AcquireGraph(nv + nu + 2)
	defer mincostflow.ReleaseGraph(g)
	for v, e := range in.Events {
		g.AddArc(s, 1+v, int64(e.Cap), 0)
	}
	for u, usr := range in.Users {
		g.AddArc(1+nv+u, t, int64(usr.Cap), 0)
	}
	var pairs []mincostflow.ArcID
	for v := 0; v < nv; v++ {
		for u := 0; u < nu; u++ {
			pairs = append(pairs, g.AddArc(1+v, 1+nv+u, 1, 1-in.Similarity(v, u)))
		}
	}
	sv := mincostflow.AcquireSolver(g, s, t)
	defer mincostflow.ReleaseSolver(sv)
	for more := true; more && sv.TotalFlow() < delta; {
		_, more = sv.AugmentPaths(delta-sv.TotalFlow(), math.Inf(1))
	}
	if sv.TotalFlow() < delta {
		return 0, false
	}
	maxSum := 0.0
	for i, a := range pairs {
		maxSum += float64(g.Flow(a)) * in.Similarity(i/nu, i%nu)
	}
	return maxSum, true
}

func TestRandomBaselinesFeasibleAndSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	in := randMatrixInstance(rng, 4, 10, 4, 3, 0.5)
	for name, solve := range map[string]func(*Instance, *rand.Rand) *Matching{
		"random-v": RandomV,
		"random-u": RandomU,
	} {
		a := solve(in, rand.New(rand.NewSource(7)))
		mustValidate(t, in, a, name)
		b := solve(in, rand.New(rand.NewSource(7)))
		if a.MaxSum() != b.MaxSum() || a.Size() != b.Size() {
			t.Errorf("%s not deterministic under a fixed seed", name)
		}
		c := solve(in, rand.New(rand.NewSource(8)))
		_ = c // different seed may differ; only feasibility matters
		mustValidate(t, in, c, name)
	}
}

func TestRandomBaselinesEmptyInstance(t *testing.T) {
	in, err := NewMatrixInstance(nil, nil, nil, [][]float64{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if RandomV(in, rng).Size() != 0 || RandomU(in, rng).Size() != 0 {
		t.Error("baselines on empty instance")
	}
}

func TestSolverRegistry(t *testing.T) {
	names := SolverNames()
	want := []string{"exact", "greedy", "mincostflow", "random-u", "random-v"}
	if len(names) != len(want) {
		t.Fatalf("SolverNames = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("SolverNames = %v, want %v", names, want)
		}
	}
	if err := LookupSolver("greedy"); err != nil {
		t.Errorf("LookupSolver(greedy): %v", err)
	}
	if err := LookupSolver("nope"); err == nil {
		t.Error("unknown solver accepted")
	}
	rng := rand.New(rand.NewSource(25))
	in := randMatrixInstance(rng, 2, 3, 2, 2, 0.3)
	for _, name := range names {
		m, err := SolveContext(context.Background(), name, in, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mustValidate(t, in, m, name)
	}
}

func TestGreedyMatrixAndEquivalentVectorAgree(t *testing.T) {
	// Build a vector instance, export its similarity matrix, and check that
	// greedy on both representations yields the same MaxSum.
	rng := rand.New(rand.NewSource(26))
	vin := randVectorInstance(rng, 4, 7, 3, 3, 2, 0.3)
	matrix := make([][]float64, vin.NumEvents())
	for v := range matrix {
		matrix[v] = make([]float64, vin.NumUsers())
		for u := range matrix[v] {
			matrix[v][u] = vin.Similarity(v, u)
		}
	}
	min, err := NewMatrixInstance(vin.Events, vin.Users, vin.Conflicts, matrix)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := Greedy(vin).MaxSum(), Greedy(min).MaxSum(); abs(a-b) > 1e-9 {
		t.Fatalf("vector greedy %v != matrix greedy %v", a, b)
	}
}

// TestResolveConflictsGreedyOrder checks the per-user greedy selection
// against a reference that sorts each user's events with slices.SortFunc
// (similarity descending, event id ascending) and keeps every event that
// conflicts with none kept before it. Similarities are quarters, so ties
// are common and the id tie-break decides which of two conflicting events
// survives; the pairs must match in order, bit for bit.
func TestResolveConflictsGreedyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := range 200 {
		nv, nu := 2+rng.Intn(7), 1+rng.Intn(4)
		events, users := make([]Event, nv), make([]User, nu)
		for v := range events {
			events[v] = Event{Cap: nu}
		}
		for u := range users {
			users[u] = User{Cap: nv}
		}
		matrix := make([][]float64, nv)
		for v := range matrix {
			matrix[v] = make([]float64, nu)
			for u := range matrix[v] {
				matrix[v][u] = float64(1+rng.Intn(4)) / 4
			}
		}
		cf := conflict.Random(rng, nv, 0.4)
		in, err := NewMatrixInstance(events, users, cf, matrix)
		if err != nil {
			t.Fatal(err)
		}
		relaxed, want := NewMatching(), NewMatching()
		for u := range nu {
			evs := rng.Perm(nv)[:1+rng.Intn(nv)]
			for _, v := range evs {
				relaxed.Add(v, u, matrix[v][u])
			}
			sorted := slices.Clone(evs)
			slices.SortFunc(sorted, func(a, b int) int {
				if c := cmp.Compare(matrix[b][u], matrix[a][u]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			var kept []int
			for _, v := range sorted {
				if !cf.ConflictsWithAny(v, kept) {
					kept = append(kept, v)
					want.Add(v, u, matrix[v][u])
				}
			}
		}
		if got := resolveConflicts(in, relaxed); !slices.Equal(got.Pairs(), want.Pairs()) {
			t.Fatalf("trial %d: kept %v, reference %v", trial, got.Pairs(), want.Pairs())
		}
	}
}
