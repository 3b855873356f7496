package core_test

import (
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/obs"
)

// greedyWorkInstance is the TABLE III 100×1000 shape (seed 7) that
// TestGreedySearchWork pins.
func greedyWorkInstance(tb testing.TB) *core.Instance {
	cfg := dataset.DefaultSynthetic()
	cfg.Seed = 7
	in, err := cfg.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// greedyCounters reads the counters that attribute Greedy's work: decided
// pairs (heap pops, or pairs the sweep examined), accepted pairs and
// similarity kernel evaluations.
func greedyCounters() (pops, accepted, pairs int64) {
	reg := obs.Default()
	return reg.Counter("geacc_greedy_pops_total").Value(),
		reg.Counter("geacc_greedy_accepted_total").Value(),
		reg.Counter("geacc_sim_kernel_pairs_total").Value()
}

// TestGreedySearchWork pins the search work of Greedy on
// greedyWorkInstance, once per loop; neither may move with a speed-only
// change to that loop.
//
// The heap loop (reached here through a Trace hook) primes its streams,
// scoring each live (event, user) pair once for both sides, so its kernel
// count is |V|·|U| below the lazy first refills' (298,768 before priming),
// with 8,894 pops. The default sweep scores each live pair exactly once,
// |V|·|U| = 100,000 kernel pairs, and examines 3,541 pairs: those left
// after dropping the ones with a full endpoint, until one side is full.
// Both accept the same 2,499 pairs.
func TestGreedySearchWork(t *testing.T) {
	in := greedyWorkInstance(t)
	for _, tc := range []struct {
		name                  string
		opt                   core.GreedyOptions
		pops, accepted, pairs int64
	}{
		{"heap", core.GreedyOptions{Trace: func(core.TraceStep) {}}, 8894, 2499, 198768},
		{"sweep", core.GreedyOptions{}, 3541, 2499, int64(in.NumEvents() * in.NumUsers())},
	} {
		p0, a0, k0 := greedyCounters()
		m := core.GreedyOpts(in, tc.opt)
		p1, a1, k1 := greedyCounters()
		pops, accepted, pairs := p1-p0, a1-a0, k1-k0
		if pops != tc.pops || accepted != tc.accepted || pairs != tc.pairs {
			t.Fatalf("%s: greedy decided %d pairs, accepted %d and scored %d kernel pairs; want %d, %d and %d",
				tc.name, pops, accepted, pairs, tc.pops, tc.accepted, tc.pairs)
		}
		if int64(m.Size()) != accepted {
			t.Fatalf("%s: matching holds %d pairs, the accepted counter moved by %d", tc.name, m.Size(), accepted)
		}
	}
}
