package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestExactResolutionNeverWorse: the MWIS-exact conflict resolution must
// dominate the paper's greedy resolution on the same relaxation, and both
// must stay feasible.
func TestExactResolutionNeverWorse(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randMatrixInstance(rng, 2+rng.Intn(4), 2+rng.Intn(6), 3, 4, rng.Float64())
		greedyRes := MinCostFlowOpts(in, FlowOptions{})
		exactRes := MinCostFlowOpts(in, FlowOptions{ExactResolution: true})
		if Validate(in, greedyRes.Matching) != nil || Validate(in, exactRes.Matching) != nil {
			return false
		}
		// Same relaxation feeds both resolutions.
		if abs(greedyRes.RelaxedMaxSum-exactRes.RelaxedMaxSum) > 1e-9 {
			return false
		}
		return exactRes.Matching.MaxSum() >= greedyRes.Matching.MaxSum()-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestExactResolutionIsOptimalPerUser: on instances where each user's
// relaxed assignment is small, the bitmask MWIS must match a brute force
// over that user's subsets — covered transitively by comparing the full
// matching to per-user brute force.
func TestExactResolutionPerUserOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		in := randMatrixInstance(rng, 4, 5, 3, 4, 0.5)
		res := MinCostFlowOpts(in, FlowOptions{ExactResolution: true})
		for u := 0; u < in.NumUsers(); u++ {
			events := res.Relaxed.UserEvents(u)
			if len(events) == 0 {
				continue
			}
			want := bruteMWIS(in, u, events)
			var got float64
			for _, v := range res.Matching.UserEvents(u) {
				got += in.Similarity(v, u)
			}
			if abs(got-want) > 1e-9 {
				t.Fatalf("trial %d user %d: MWIS %v, brute force %v", trial, u, got, want)
			}
		}
	}
}

// bruteMWIS enumerates all subsets of events recursively (a code path
// independent of the bitmask DP).
func bruteMWIS(in *Instance, u int, events []int) float64 {
	var rec func(i int, chosen []int, sum float64) float64
	rec = func(i int, chosen []int, sum float64) float64 {
		if i == len(events) {
			return sum
		}
		best := rec(i+1, chosen, sum)
		v := events[i]
		ok := true
		for _, w := range chosen {
			if in.Conflicting(v, w) {
				ok = false
				break
			}
		}
		if ok {
			if withV := rec(i+1, append(chosen, v), sum+in.Similarity(v, u)); withV > best {
				best = withV
			}
		}
		return best
	}
	return rec(0, nil, 0)
}

// TestTightBoundSameOptimum: the tightened bound is admissible — Prune-GEACC
// returns the same optimum with and without it.
func TestTightBoundSameOptimum(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randMatrixInstance(rng, 1+rng.Intn(4), 1+rng.Intn(5), 3, 3, rng.Float64())
		loose, _, err := ExactOpts(in, ExactOptions{})
		if err != nil {
			return false
		}
		tight, _, err := ExactOpts(in, ExactOptions{TightBound: true})
		if err != nil {
			return false
		}
		if Validate(in, tight) != nil {
			return false
		}
		return abs(loose.MaxSum()-tight.MaxSum()) <= 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestTightBoundReducesSearchMostly: the tightened potential should prune at
// least as hard as the paper's on a clear majority of instances.
func TestTightBoundReducesSearchMostly(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	wins, trials := 0, 30
	for trial := 0; trial < trials; trial++ {
		in := randMatrixInstance(rng, 4, 7, 4, 3, 0.4)
		_, loose, err := ExactOpts(in, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, tight, err := ExactOpts(in, ExactOptions{TightBound: true})
		if err != nil {
			t.Fatal(err)
		}
		if tight.Invocations <= loose.Invocations {
			wins++
		}
	}
	if wins < trials*2/3 {
		t.Errorf("tight bound reduced search on only %d/%d instances", wins, trials)
	}
}

// TestExactResolutionFallbackPath exercises the >20-events fallback by
// constructing a user relaxed onto many events.
func TestExactResolutionFallback(t *testing.T) {
	const nv = 25
	events := make([]Event, nv)
	matrix := make([][]float64, nv)
	for v := range events {
		events[v] = Event{Cap: 1}
		matrix[v] = []float64{float64(v+1) / float64(nv+1)}
	}
	in, err := NewMatrixInstance(events, []User{{Cap: nv}}, nil, matrix)
	if err != nil {
		t.Fatal(err)
	}
	res := MinCostFlowOpts(in, FlowOptions{ExactResolution: true})
	if err := Validate(in, res.Matching); err != nil {
		t.Fatal(err)
	}
	// No conflicts: everything survives resolution in both modes.
	if res.Matching.Size() != nv {
		t.Fatalf("size = %d, want %d", res.Matching.Size(), nv)
	}
}
