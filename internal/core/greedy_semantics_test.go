package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// referenceGreedy is the declarative specification Greedy-GEACC realizes:
// scan every (event, user) pair in non-increasing similarity order (ties by
// event id then user id) and add each pair that is feasible at that moment.
// Algorithm 2's heap-and-NN-stream machinery exists to avoid materializing
// the full pair list; the outcomes must be identical.
func referenceGreedy(in *Instance) *Matching {
	type pair struct {
		v, u int
		s    float64
	}
	var pairs []pair
	for v := 0; v < in.NumEvents(); v++ {
		for u := 0; u < in.NumUsers(); u++ {
			if s := in.Similarity(v, u); s > 0 {
				pairs = append(pairs, pair{v, u, s})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].s != pairs[j].s {
			return pairs[i].s > pairs[j].s
		}
		if pairs[i].v != pairs[j].v {
			return pairs[i].v < pairs[j].v
		}
		return pairs[i].u < pairs[j].u
	})
	m := NewMatching()
	capV := remainingEventCaps(in)
	capU := remainingUserCaps(in)
	for _, p := range pairs {
		if capV[p.v] == 0 || capU[p.u] == 0 {
			continue
		}
		if in.Conflicts != nil && in.Conflicts.ConflictsWithAny(p.v, m.UserEvents(p.u)) {
			continue
		}
		m.Add(p.v, p.u, p.s)
		capV[p.v]--
		capU[p.u]--
	}
	return m
}

func matchingsEqual(a, b *Matching) bool {
	if a.Size() != b.Size() {
		return false
	}
	as, bs := a.SortedPairs(), b.SortedPairs()
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestGreedyEqualsReferenceOnMatrices compares the heap implementation to
// the specification pair-for-pair on explicit-matrix instances (whose
// streams share the same deterministic tie order).
func TestGreedyEqualsReferenceOnMatrices(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randMatrixInstance(rng, 1+rng.Intn(6), 1+rng.Intn(10), 4, 4, rng.Float64())
		got := Greedy(in)
		want := referenceGreedy(in)
		if !matchingsEqual(got, want) {
			t.Logf("greedy:    %+v", got.SortedPairs())
			t.Logf("reference: %+v", want.SortedPairs())
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestGreedyEqualsReferenceOnVectors runs the same comparison on vector
// instances. Vector similarities almost never tie, so the pair-for-pair
// match must hold.
func TestGreedyEqualsReferenceOnVectors(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randVectorInstance(rng, 1+rng.Intn(6), 1+rng.Intn(12), 1+rng.Intn(4), 4, 3, rng.Float64())
		return matchingsEqual(Greedy(in), referenceGreedy(in))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestTable1GreedyEqualsReference pins the specification equivalence on the
// paper's own example.
func TestTable1GreedyEqualsReference(t *testing.T) {
	in := table1Instance(t)
	if !matchingsEqual(Greedy(in), referenceGreedy(in)) {
		t.Fatal("heap greedy diverged from the specification on TABLE I")
	}
}
