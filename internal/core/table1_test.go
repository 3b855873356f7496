package core

import (
	"math"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
)

// table1Instance reproduces TABLE I of the paper: three events (capacities
// 5, 3, 2), five users (capacities 3, 1, 1, 2, 3), explicit interestingness
// values, and conflicting pair {v1, v3}.
func table1Instance(t *testing.T) *Instance {
	t.Helper()
	events := []Event{{Cap: 5}, {Cap: 3}, {Cap: 2}}
	users := []User{{Cap: 3}, {Cap: 1}, {Cap: 1}, {Cap: 2}, {Cap: 3}}
	matrix := [][]float64{
		{0.93, 0.43, 0.84, 0.64, 0.65},
		{0, 0.35, 0.19, 0.21, 0.4},
		{0.86, 0.57, 0.78, 0.79, 0.68},
	}
	cf := conflict.FromPairs(3, [][2]int{{0, 2}})
	in, err := NewMatrixInstance(events, users, cf, matrix)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestTable1OptimalIs439(t *testing.T) {
	in := table1Instance(t)
	m, stats, err := ExactOpts(in, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(in, m); err != nil {
		t.Fatalf("exact matching infeasible: %v", err)
	}
	if got := m.MaxSum(); math.Abs(got-4.39) > 1e-9 {
		t.Fatalf("optimal MaxSum = %v, paper says 4.39", got)
	}
	if stats.MaxDepth != 15 {
		t.Errorf("MaxDepth = %d, want 15", stats.MaxDepth)
	}
	// The optimal arrangement of Example 1: u1->v1, u2->v3, u3->v1,
	// u4->{v2,v3}, u5->{v1,v2}.
	want := map[[2]int]bool{
		{0, 0}: true, {2, 1}: true, {0, 2}: true,
		{1, 3}: true, {2, 3}: true, {0, 4}: true, {1, 4}: true,
	}
	if m.Size() != len(want) {
		t.Fatalf("optimal matching has %d pairs, want %d: %+v", m.Size(), len(want), m.SortedPairs())
	}
	for _, p := range m.Pairs() {
		if !want[[2]int{p.V, p.U}] {
			t.Errorf("unexpected optimal pair (v%d, u%d)", p.V+1, p.U+1)
		}
	}
}

func TestTable1GreedyIs428(t *testing.T) {
	in := table1Instance(t)
	m := Greedy(in)
	if err := Validate(in, m); err != nil {
		t.Fatalf("greedy matching infeasible: %v", err)
	}
	if got := m.MaxSum(); math.Abs(got-4.28) > 1e-9 {
		t.Fatalf("Greedy MaxSum = %v, Example 3 says 4.28", got)
	}
	// Example 3's walkthrough adds v1u1 first and rejects v3u1 for conflict.
	if !m.Contains(0, 0) {
		t.Error("greedy must match v1 with u1")
	}
	if m.Contains(2, 0) {
		t.Error("v3-u1 conflicts with v1-u1 and must be rejected")
	}
}

func TestTable1MinCostFlowIs413(t *testing.T) {
	in := table1Instance(t)
	res := MinCostFlowOpts(in, FlowOptions{})
	if err := Validate(in, res.Matching); err != nil {
		t.Fatalf("mincostflow matching infeasible: %v", err)
	}
	if got := res.Matching.MaxSum(); math.Abs(got-4.13) > 1e-9 {
		t.Fatalf("MinCostFlow MaxSum = %v, Example 2 says 4.13", got)
	}
	// The relaxation M∅ of Fig. 1b assigns u1 to both v1 and v3; its MaxSum
	// is 5.64 and upper-bounds the conflict-constrained optimum 4.39.
	if got := res.RelaxedMaxSum; math.Abs(got-5.64) > 1e-9 {
		t.Fatalf("MaxSum(M∅) = %v, want 5.64", got)
	}
	if res.RelaxedMaxSum < 4.39-1e-9 {
		t.Fatal("Corollary 1 violated: relaxation below optimum")
	}
	// Example 2: u1 keeps v1 (0.93 > 0.86); u5 keeps v3 (0.68 > 0.65).
	if !res.Matching.Contains(0, 0) || res.Matching.Contains(2, 0) {
		t.Error("conflict resolution for u1 must keep v1, drop v3")
	}
	if !res.Matching.Contains(2, 4) || res.Matching.Contains(0, 4) {
		t.Error("conflict resolution for u5 must keep v3, drop v1")
	}
}

func TestTable1ApproximationRatiosHold(t *testing.T) {
	in := table1Instance(t)
	opt := 4.39
	alpha := float64(maxUserCap(in)) // 3
	if g := Greedy(in).MaxSum(); g < opt/(1+alpha)-1e-9 {
		t.Errorf("Greedy %v below 1/(1+α) bound %v", g, opt/(1+alpha))
	}
	if f := MinCostFlowOpts(in, FlowOptions{}).Matching.MaxSum(); f < opt/alpha-1e-9 {
		t.Errorf("MinCostFlow %v below 1/α bound %v", f, opt/alpha)
	}
}

func TestTable1AlgorithmOrdering(t *testing.T) {
	// On the toy instance the paper's walkthroughs give
	// exact (4.39) > greedy (4.28) > mincostflow (4.13).
	in := table1Instance(t)
	exact, _, err := ExactOpts(in, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := Greedy(in)
	f := MinCostFlowOpts(in, FlowOptions{}).Matching
	if !(exact.MaxSum() > g.MaxSum() && g.MaxSum() > f.MaxSum()) {
		t.Errorf("ordering violated: exact=%v greedy=%v mcf=%v",
			exact.MaxSum(), g.MaxSum(), f.MaxSum())
	}
}
