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

// greedyCounters reads the counters that attribute Greedy's work: heap
// pops, accepted pairs and similarity kernel evaluations.
func greedyCounters() (pops, accepted, pairs int64) {
	reg := obs.Default()
	return reg.Counter("geacc_greedy_pops_total").Value(),
		reg.Counter("geacc_greedy_accepted_total").Value(),
		reg.Counter("geacc_sim_kernel_pairs_total").Value()
}

// TestGreedySearchWork pins the search work of one default Greedy solve on
// greedyWorkInstance: heap pops, accepted pairs and kernel pairs. The
// primed initialization scores each live (event, user) pair once for both
// sides, so the kernel count is |V|·|U| below the lazy first refills' (the
// parent of that change read 298,768); pops and accepted pairs must not
// move with any speed-only change.
func TestGreedySearchWork(t *testing.T) {
	in := greedyWorkInstance(t)
	p0, a0, k0 := greedyCounters()
	m := core.Greedy(in)
	p1, a1, k1 := greedyCounters()
	pops, accepted, pairs := p1-p0, a1-a0, k1-k0
	if pops != 8894 || accepted != 2499 || pairs != 198768 {
		t.Fatalf("greedy did %d pops, accepted %d pairs and scored %d kernel pairs; want 8894, 2499 and 198768",
			pops, accepted, pairs)
	}
	if int64(m.Size()) != accepted {
		t.Fatalf("matching holds %d pairs, the accepted counter moved by %d", m.Size(), accepted)
	}
}
