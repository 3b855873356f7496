package core

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
)

// poolRaceInstance builds one deterministic matrix instance for the race
// test — small enough that the exact solver finishes instantly, big enough
// that every pooled scratch structure (heaps, flow network, simMat rows)
// is genuinely exercised.
func poolRaceInstance(t *testing.T, seed int64, nv, nu int) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	events := make([]Event, nv)
	for v := range events {
		events[v] = Event{Cap: 1 + rng.Intn(3)}
	}
	users := make([]User, nu)
	for u := range users {
		users[u] = User{Cap: 1 + rng.Intn(2)}
	}
	matrix := make([][]float64, nv)
	for v := range matrix {
		matrix[v] = make([]float64, nu)
		for u := range matrix[v] {
			matrix[v][u] = rng.Float64()
		}
	}
	cf := conflict.Random(rng, nv, 0.3)
	in, err := NewMatrixInstance(events, users, cf, matrix)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestPooledSolveRace hammers the pooled per-solve scratch (greedy heaps
// and stream tables, the min-cost-flow network + solver, exact's flat
// simMat) from many goroutines at once and checks every result against the
// sequential reference. Run under -race (make race covers this package) it
// is the safety proof for the sync.Pool reuse: a reset that misses one byte
// of a previous solve shows up either as a data race or as MaxSum drift.
func TestPooledSolveRace(t *testing.T) {
	type solver struct {
		name string
		run  func(in *Instance) float64
	}
	solvers := []solver{
		{"greedy", func(in *Instance) float64 { return Greedy(in).MaxSum() }},
		{"mincostflow", func(in *Instance) float64 { return MinCostFlowOpts(in, FlowOptions{}).Matching.MaxSum() }},
		{"exact", func(in *Instance) float64 {
			m, _, err := ExactOpts(in, ExactOptions{})
			if err != nil {
				t.Errorf("exact: %v", err)
				return -1
			}
			return m.MaxSum()
		}},
	}

	instances := []*Instance{
		poolRaceInstance(t, 1, 4, 8),
		poolRaceInstance(t, 2, 5, 6),
		poolRaceInstance(t, 3, 3, 10),
		poolRaceInstance(t, 4, 6, 5),
	}
	// Sequential reference, computed before any concurrency: the pooled
	// path must reproduce these sums bit-exactly under contention.
	want := make([][]float64, len(solvers))
	for si, sv := range solvers {
		want[si] = make([]float64, len(instances))
		for ii, in := range instances {
			want[si][ii] = sv.run(in)
		}
	}

	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				si := (g + i) % len(solvers)
				ii := (g * 7 / 3 * i) % len(instances)
				if ii < 0 {
					ii = -ii
				}
				got := solvers[si].run(instances[ii])
				if got != want[si][ii] {
					t.Errorf("goroutine %d iter %d: %s on instance %d: MaxSum %v, want %v (pooled scratch leaked state)",
						g, i, solvers[si].name, ii, got, want[si][ii])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
