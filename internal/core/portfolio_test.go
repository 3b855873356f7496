package core

import (
	"context"
	"math/rand"
	"testing"
)

func TestPortfolioBestOfAll(t *testing.T) {
	in := table1Instance(t)
	best, results, err := PortfolioCtx(context.Background(), in, []string{"greedy", "mincostflow", "random-v"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	// Greedy's 4.28 beats mincostflow's 4.13 on TABLE I.
	if abs(best.MaxSum()-4.28) > 1e-9 {
		t.Fatalf("best = %v, want 4.28", best.MaxSum())
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		if r.Matching.MaxSum() > best.MaxSum()+1e-12 {
			t.Fatalf("best is not best: %s has %v", r.Name, r.Matching.MaxSum())
		}
	}
}

func TestPortfolioErrors(t *testing.T) {
	in := table1Instance(t)
	if _, _, err := PortfolioCtx(context.Background(), in, nil, 1); err == nil {
		t.Error("empty portfolio accepted")
	}
	if _, _, err := PortfolioCtx(context.Background(), in, []string{"greedy", "nope"}, 1); err == nil {
		t.Error("unknown solver accepted")
	}
}

func TestPortfolioDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	in := randMatrixInstance(rng, 4, 8, 3, 3, 0.4)
	a, _, err := PortfolioCtx(context.Background(), in, []string{"random-v", "random-u"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := PortfolioCtx(context.Background(), in, []string{"random-v", "random-u"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxSum() != b.MaxSum() {
		t.Error("portfolio not deterministic for a fixed seed")
	}
}

func TestPortfolioConcurrentSafety(t *testing.T) {
	// Many solvers racing on a shared instance; run with -race to verify
	// freedom from data races.
	rng := rand.New(rand.NewSource(92))
	in := randVectorInstance(rng, 6, 20, 3, 4, 3, 0.3)
	names := []string{"greedy", "mincostflow", "random-v", "random-u", "exact"}
	best, results, err := PortfolioCtx(context.Background(), in, names, 2)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, in, best, "portfolio")
	// Exact participates, so the best must equal the optimum.
	var exactSum float64
	for _, r := range results {
		if r.Name == "exact" {
			exactSum = r.Matching.MaxSum()
		}
	}
	if best.MaxSum() < exactSum-1e-9 {
		t.Fatalf("best %v below exact %v", best.MaxSum(), exactSum)
	}
}
