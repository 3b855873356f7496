package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/sim"
)

// maxUserCap returns max c_u, the α in both approximation ratios.
func maxUserCap(in *Instance) int {
	m := 0
	for _, u := range in.Users {
		m = max(m, u.Cap)
	}
	return m
}

// maxDelta returns Δmax of Algorithm 1: min(Σ c_v, Σ c_u).
func maxDelta(in *Instance) int64 {
	var sumV, sumU int64
	for _, e := range in.Events {
		sumV += int64(e.Cap)
	}
	for _, u := range in.Users {
		sumU += int64(u.Cap)
	}
	return min(sumV, sumU)
}

// freeBudget returns a budget that never binds (zero prices).
func freeBudget(in *Instance) *Budget {
	return &Budget{Prices: make([]float64, in.NumEvents()), Budgets: make([]float64, in.NumUsers())}
}

// randVectorInstance builds a random vector-based instance.
func randVectorInstance(rng *rand.Rand, nv, nu, d int, maxCapV, maxCapU int, cfRatio float64) *Instance {
	const maxT = 100.0
	events := make([]Event, nv)
	for i := range events {
		events[i] = Event{Attrs: randVec(rng, d, maxT), Cap: 1 + rng.Intn(maxCapV)}
	}
	users := make([]User, nu)
	for i := range users {
		users[i] = User{Attrs: randVec(rng, d, maxT), Cap: 1 + rng.Intn(maxCapU)}
	}
	cf := conflict.Random(rng, nv, cfRatio)
	in, err := NewInstance(events, users, cf, sim.Euclidean(d, maxT))
	if err != nil {
		panic(err)
	}
	return in
}

// randMatrixInstance builds a random explicit-matrix instance; a fraction of
// entries are exactly zero to exercise the sim > 0 constraint.
func randMatrixInstance(rng *rand.Rand, nv, nu int, maxCapV, maxCapU int, cfRatio float64) *Instance {
	events := make([]Event, nv)
	for i := range events {
		events[i] = Event{Cap: 1 + rng.Intn(maxCapV)}
	}
	users := make([]User, nu)
	for i := range users {
		users[i] = User{Cap: 1 + rng.Intn(maxCapU)}
	}
	matrix := make([][]float64, nv)
	for v := range matrix {
		matrix[v] = make([]float64, nu)
		for u := range matrix[v] {
			if rng.Float64() < 0.15 {
				continue // zero similarity
			}
			matrix[v][u] = float64(1+rng.Intn(1000)) / 1000
		}
	}
	cf := conflict.Random(rng, nv, cfRatio)
	in, err := NewMatrixInstance(events, users, cf, matrix)
	if err != nil {
		panic(err)
	}
	return in
}

// sparseMatrixInstance is a conflict-free matrix instance in which exactly
// ceil(zeroFrac·nv·nu) pairs, chosen at random, have similarity 0 and the
// rest are positive; a quarter of those are tiny (1e-7 to 1e-4), so a
// solver that drops near-zero pairs along with the zeros is caught.
func sparseMatrixInstance(rng *rand.Rand, nv, nu int, maxCapV, maxCapU int, zeroFrac float64) *Instance {
	events := make([]Event, nv)
	for i := range events {
		events[i] = Event{Cap: 1 + rng.Intn(maxCapV)}
	}
	users := make([]User, nu)
	for i := range users {
		users[i] = User{Cap: 1 + rng.Intn(maxCapU)}
	}
	matrix := make([][]float64, nv)
	for v := range matrix {
		matrix[v] = make([]float64, nu)
	}
	zeros := int(math.Ceil(zeroFrac * float64(nv*nu)))
	for k, i := range rng.Perm(nv * nu) {
		if k >= zeros {
			sim := float64(1+rng.Intn(1000)) / 1000
			if rng.Intn(4) == 0 {
				sim *= 1e-4
			}
			matrix[i/nu][i%nu] = sim
		}
	}
	in, err := NewMatrixInstance(events, users, nil, matrix)
	if err != nil {
		panic(err)
	}
	return in
}

func randVec(rng *rand.Rand, d int, maxT float64) sim.Vector {
	v := make(sim.Vector, d)
	for i := range v {
		v[i] = rng.Float64() * maxT
	}
	return v
}

// bruteForceOpt computes the optimal MaxSum by a recursion independent of
// the Prune-GEACC code path: it walks users left to right and, for each
// user, enumerates every feasible subset of events (capacity, conflicts,
// sim > 0), tracking remaining event capacities. Exponential — tiny
// instances only.
func bruteForceOpt(in *Instance) float64 {
	nv, nu := in.NumEvents(), in.NumUsers()
	capV := make([]int, nv)
	for v, e := range in.Events {
		capV[v] = e.Cap
	}
	best := 0.0
	var perUser func(u int, total float64)
	var subsets func(u, fromV, budget int, chosen []int, total float64)
	perUser = func(u int, total float64) {
		if u == nu {
			if total > best {
				best = total
			}
			return
		}
		subsets(u, 0, in.Users[u].Cap, nil, total)
	}
	subsets = func(u, fromV, budget int, chosen []int, total float64) {
		perUserDone := func() {
			perUser(u+1, total)
		}
		if budget == 0 || fromV == nv {
			perUserDone()
			return
		}
		// Skip event fromV.
		subsets(u, fromV+1, budget, chosen, total)
		// Take event fromV when feasible.
		s := in.Similarity(fromV, u)
		if s <= 0 || capV[fromV] == 0 {
			return
		}
		for _, w := range chosen {
			if in.Conflicting(fromV, w) {
				return
			}
		}
		capV[fromV]--
		subsets(u, fromV+1, budget-1, append(chosen, fromV), total+s)
		capV[fromV]++
	}
	perUser(0, 0)
	return best
}

func mustValidate(t *testing.T, in *Instance, m *Matching, algo string) {
	t.Helper()
	if err := Validate(in, m); err != nil {
		t.Fatalf("%s produced infeasible matching: %v", algo, err)
	}
}
