package core

import (
	"errors"
	"math/rand"
	"testing"
)

func TestExactEmptyInstance(t *testing.T) {
	in, err := NewMatrixInstance(nil, nil, nil, [][]float64{})
	if err != nil {
		t.Fatal(err)
	}
	m, stats, err := ExactOpts(in, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 0 || stats.Invocations != 0 {
		t.Errorf("empty instance: size=%d invocations=%d", m.Size(), stats.Invocations)
	}
}

func TestExactSinglePair(t *testing.T) {
	in, err := NewMatrixInstance(
		[]Event{{Cap: 1}}, []User{{Cap: 1}}, nil, [][]float64{{0.7}})
	if err != nil {
		t.Fatal(err)
	}
	m, stats, err := ExactOpts(in, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 1 || m.MaxSum() != 0.7 {
		t.Fatalf("got %v", m.SortedPairs())
	}
	if stats.MaxDepth != 1 {
		t.Errorf("MaxDepth = %d", stats.MaxDepth)
	}
}

func TestExhaustiveEqualsPruned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		in := randMatrixInstance(rng, 1+rng.Intn(3), 1+rng.Intn(4), 3, 3, rng.Float64())
		pruned, pstats, err := ExactOpts(in, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		exhaustive, estats, err := ExactOpts(in, ExactOptions{DisablePruning: true, DisableWarmStart: true})
		if err != nil {
			t.Fatal(err)
		}
		if abs(pruned.MaxSum()-exhaustive.MaxSum()) > 1e-9 {
			t.Fatalf("trial %d: pruned %v != exhaustive %v", trial, pruned.MaxSum(), exhaustive.MaxSum())
		}
		if estats.Prunes != 0 {
			t.Fatalf("exhaustive search pruned %d times", estats.Prunes)
		}
		if pstats.Invocations > estats.Invocations {
			t.Fatalf("trial %d: pruning increased invocations: %d > %d",
				trial, pstats.Invocations, estats.Invocations)
		}
		if pstats.CompleteSearches > estats.CompleteSearches {
			t.Fatalf("trial %d: pruning increased complete searches", trial)
		}
	}
}

func TestPruningActuallyFires(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	in := randMatrixInstance(rng, 4, 6, 3, 2, 0.25)
	_, stats, err := ExactOpts(in, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Prunes == 0 {
		t.Error("no prune fired on a non-trivial instance")
	}
	if stats.AvgPrunedDepth() <= 0 || stats.AvgPrunedDepth() > float64(stats.MaxDepth) {
		t.Errorf("AvgPrunedDepth = %v outside (0, %d]", stats.AvgPrunedDepth(), stats.MaxDepth)
	}
}

func TestAvgPrunedDepthZeroWhenNoPrunes(t *testing.T) {
	var s SearchStats
	if s.AvgPrunedDepth() != 0 {
		t.Error("AvgPrunedDepth on zero prunes")
	}
}

func TestExactNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := randMatrixInstance(rng, 4, 8, 4, 3, 0.25)
	m, stats, err := ExactOpts(in, ExactOptions{NodeLimit: 10, DisableWarmStart: true})
	if !errors.Is(err, ErrNodeLimit) {
		t.Fatalf("err = %v, want ErrNodeLimit", err)
	}
	if stats.Invocations > 11 {
		t.Errorf("limit not enforced: %d invocations", stats.Invocations)
	}
	if m == nil {
		t.Error("best-so-far matching not returned on limit")
	}
}

func TestWarmStartNeverWorseAndFewerNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	betterOrEqualNodes := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		in := randMatrixInstance(rng, 3, 5, 3, 2, 0.5)
		warm, wstats, err := ExactOpts(in, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cold, cstats, err := ExactOpts(in, ExactOptions{DisableWarmStart: true})
		if err != nil {
			t.Fatal(err)
		}
		if abs(warm.MaxSum()-cold.MaxSum()) > 1e-9 {
			t.Fatalf("warm start changed the optimum: %v vs %v", warm.MaxSum(), cold.MaxSum())
		}
		if wstats.Invocations <= cstats.Invocations {
			betterOrEqualNodes++
		}
	}
	// The Greedy seed should reduce (or match) search effort on most
	// instances; the paper adds it for exactly this reason.
	if betterOrEqualNodes < trials/2 {
		t.Errorf("warm start helped on only %d/%d instances", betterOrEqualNodes, trials)
	}
}

func TestExactRespectsConflictsDensely(t *testing.T) {
	// Complete conflict graph: every user attends at most one event.
	rng := rand.New(rand.NewSource(15))
	in := randMatrixInstance(rng, 3, 4, 3, 3, 1.0)
	m, _, err := ExactOpts(in, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, in, m, "exact")
	for u := 0; u < in.NumUsers(); u++ {
		if len(m.UserEvents(u)) > 1 {
			t.Fatalf("user %d attends %d mutually conflicting events", u, len(m.UserEvents(u)))
		}
	}
}

func TestExactVectorInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	in := randVectorInstance(rng, 3, 5, 2, 2, 2, 0.3)
	m, _, err := ExactOpts(in, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, in, m, "exact")
	if got, want := m.MaxSum(), bruteForceOpt(in); abs(got-want) > 1e-9 {
		t.Fatalf("exact %v != brute force %v on vector instance", got, want)
	}
}
