package geacc

import (
	"math/rand"
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
// one go through the same pipeline, so both count their solver runs. The
// facade memoizes nothing, so a repeated identical call solves again.
func TestSolveRecordsSolveMetrics(t *testing.T) {
	name := obs.Label("geacc_solve_total", "algo", "greedy")
	p := randomEuclideanProblem(t, rand.New(rand.NewSource(1)), 4, 30)
	for _, opt := range []SolveOptions{{}, {Decompose: true}} {
		for call := 1; call <= 2; call++ {
			before := obs.Default().Counters()[name]
			if _, err := p.SolveOpts(Greedy, opt); err != nil {
				t.Fatal(err)
			}
			if delta := obs.Default().Counters()[name] - before; delta < 1 {
				t.Errorf("%+v call %d: geacc_solve_total{algo=greedy} moved by %d, want >= 1", opt, call, delta)
			}
		}
	}
}
