package geacc

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/ebsnlab/geacc/internal/obs"
)

func randomEuclideanProblem(t *testing.T, rng *rand.Rand, nv, nu int) *Problem {
	t.Helper()
	attrs := func() []float64 { return []float64{rng.Float64() * 10, rng.Float64() * 10} }
	events := make([]Event, nv)
	for i := range events {
		events[i] = Event{Attrs: attrs(), Cap: 1 + rng.Intn(3)}
	}
	users := make([]User, nu)
	for i := range users {
		users[i] = User{Attrs: attrs(), Cap: 1 + rng.Intn(2)}
	}
	p, err := NewProblem(events, users, WithEuclideanSimilarity(2, 10),
		WithConflictPairs([][2]int{{0, nv - 1}}))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSolveRecordsSolveMetrics: the plain facade solve and the decomposed
// one go through the same pipeline, so both count their solver runs.
func TestSolveRecordsSolveMetrics(t *testing.T) {
	name := obs.Label("geacc_solve_total", "algo", "greedy")
	p := randomEuclideanProblem(t, rand.New(rand.NewSource(1)), 4, 30)
	for _, opt := range []SolveOptions{{DisableCache: true}, {DisableCache: true, Decompose: true}} {
		before := obs.Default().Counters()[name]
		if _, err := p.SolveOpts(Greedy, opt); err != nil {
			t.Fatal(err)
		}
		if delta := obs.Default().Counters()[name] - before; delta < 1 {
			t.Errorf("%+v: geacc_solve_total{algo=greedy} moved by %d, want >= 1", opt, delta)
		}
	}
}

// TestSolveCachedMatchesFreshProperty: over random problems and options,
// a memoized facade answer equals an uncached solve, and the caller's copy
// is its own (mutating it cannot reach the cache).
func TestSolveCachedMatchesFreshProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	algos := []Algorithm{Greedy, MinCostFlow, Exact, RandomV, RandomU}
	for i := 0; i < 30; i++ {
		p := randomEuclideanProblem(t, rng, 2+rng.Intn(4), 5+rng.Intn(15))
		algo := algos[rng.Intn(len(algos))]
		opt := SolveOptions{Seed: rng.Int63n(3), Decompose: rng.Intn(2) == 0, DecomposeWorkers: rng.Intn(3)}
		if rng.Intn(3) == 0 {
			opt.ApproxShard = &ApproxShardOptions{MaxArea: 4}
		}
		first, err := p.SolveOpts(algo, opt)
		if err != nil {
			t.Fatal(err)
		}
		first.Add(99, 99, 1) // must not leak into the cache
		cached, err := p.SolveOpts(algo, opt)
		if err != nil {
			t.Fatal(err)
		}
		fresh := opt
		fresh.DisableCache = true
		want, err := p.SolveOpts(algo, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached.Pairs(), want.Pairs()) || cached.MaxSum() != want.MaxSum() {
			t.Fatalf("%v %+v: cached %v, fresh %v", algo, opt, cached.Pairs(), want.Pairs())
		}
	}
}
