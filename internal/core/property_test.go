package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestTheorem2MinCostFlowRatio checks MaxSum(M) ≥ MaxSum(M_OPT)/max c_u on
// random small instances, with the optimum from an independent brute force.
func TestTheorem2MinCostFlowRatio(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randMatrixInstance(rng, 1+rng.Intn(4), 1+rng.Intn(5), 3, 3, rng.Float64())
		opt := bruteForceOpt(in)
		got := MinCostFlow(in).Matching.MaxSum()
		alpha := float64(in.MaxUserCap())
		return got >= opt/alpha-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestTheorem3GreedyRatio checks MaxSum(M) ≥ MaxSum(M_OPT)/(1 + max c_u).
func TestTheorem3GreedyRatio(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randMatrixInstance(rng, 1+rng.Intn(4), 1+rng.Intn(5), 3, 3, rng.Float64())
		opt := bruteForceOpt(in)
		got := Greedy(in).MaxSum()
		alpha := float64(in.MaxUserCap())
		return got >= opt/(1+alpha)-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestCorollary1RelaxationUpperBounds checks MaxSum(M_OPT) ≤ MaxSum(M∅).
func TestCorollary1RelaxationUpperBounds(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randMatrixInstance(rng, 1+rng.Intn(4), 1+rng.Intn(4), 3, 3, rng.Float64())
		return RelaxedUpperBound(in) >= bruteForceOpt(in)-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestExactMatchesBruteForce cross-checks Prune-GEACC against the
// independent per-user-subset brute force.
func TestExactMatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randMatrixInstance(rng, 1+rng.Intn(4), 1+rng.Intn(5), 3, 3, rng.Float64())
		m, _, err := Exact(in)
		if err != nil {
			return false
		}
		if Validate(in, m) != nil {
			return false
		}
		opt := bruteForceOpt(in)
		return abs(m.MaxSum()-opt) <= 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestAllSolversProduceFeasibleMatchings is the master feasibility property:
// every algorithm's output passes Validate on random vector instances.
func TestAllSolversProduceFeasibleMatchings(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randVectorInstance(rng, 2+rng.Intn(5), 2+rng.Intn(8), 1+rng.Intn(4), 3, 3, rng.Float64())
		for _, name := range SolverNames() {
			m, err := SolveContext(context.Background(), name, in, rng)
			if err == nil {
				err = Validate(in, m)
			}
			if err != nil {
				t.Logf("solver %s: %v", name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestNoConflictsMinCostFlowIsOptimal: with CF = ∅, MinCostFlow-GEACC is
// exact (Lemma 1), so it must equal brute force and dominate Greedy.
func TestNoConflictsMinCostFlowIsOptimal(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randMatrixInstance(rng, 1+rng.Intn(4), 1+rng.Intn(5), 3, 3, 0)
		opt := bruteForceOpt(in)
		res := MinCostFlow(in)
		if abs(res.Matching.MaxSum()-opt) > 1e-9 {
			return false
		}
		return Greedy(in).MaxSum() <= opt+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestGreedyIndexAblation: every NN index yields the same greedy MaxSum on
// vector instances (the matching is determined by the similarity order, not
// by the index implementation).
func TestGreedyIndexAblation(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randVectorInstance(rng, 2+rng.Intn(6), 2+rng.Intn(10), 1+rng.Intn(3), 4, 3, rng.Float64())
		base := GreedyOpts(in, GreedyOptions{Index: IndexSorted}).MaxSum()
		for _, kind := range []IndexKind{IndexChunked, IndexIDistance, IndexVAFile} {
			got := GreedyOpts(in, GreedyOptions{Index: kind}).MaxSum()
			if abs(got-base) > 1e-9 {
				t.Logf("index %v: MaxSum %v, sorted %v", kind, got, base)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
