package core_test

import (
	"math/rand"
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
// pairs (the sweep's steps), accepted pairs and similarity kernel
// evaluations.
func greedyCounters() (pops, accepted, pairs int64) {
	reg := obs.Default()
	return reg.Counter("geacc_greedy_pops_total").Value(),
		reg.Counter("geacc_greedy_accepted_total").Value(),
		reg.Counter("geacc_sim_kernel_pairs_total").Value()
}

// TestGreedySearchWork pins the search work of Greedy on
// greedyWorkInstance; none of it may move with a speed-only change.
//
// The sweep scores each live pair exactly once, |V|·|U| = 100,000 kernel
// pairs, and decides 3,541 pairs: those it reaches while both endpoints
// have capacity, until one side is full. A trace holds exactly those
// steps, 2,499 accepts and 1,042 conflict rejections, and does not change
// the work. The paper's heap loop (the test oracle HeapGreedy) pops 8,894
// pairs for the same 2,499 accepts: its heap also holds candidates whose
// endpoint filled before they were popped.
func TestGreedySearchWork(t *testing.T) {
	in := greedyWorkInstance(t)
	for _, traced := range []bool{false, true} {
		var accepts, conflicts int64
		var opt core.GreedyOptions
		if traced {
			opt.Trace = func(s core.TraceStep) {
				if s.Accepted {
					accepts++
				} else {
					conflicts++
				}
			}
		}
		p0, a0, k0 := greedyCounters()
		m := core.GreedyOpts(in, opt)
		p1, a1, k1 := greedyCounters()
		pops, accepted, pairs := p1-p0, a1-a0, k1-k0
		if pops != 3541 || accepted != 2499 || pairs != int64(in.NumEvents()*in.NumUsers()) {
			t.Fatalf("traced=%v: greedy decided %d pairs, accepted %d and scored %d kernel pairs; want 3541, 2499 and %d",
				traced, pops, accepted, pairs, in.NumEvents()*in.NumUsers())
		}
		if int64(m.Size()) != accepted {
			t.Fatalf("traced=%v: matching holds %d pairs, the accepted counter moved by %d", traced, m.Size(), accepted)
		}
		if traced && (accepts != 2499 || conflicts != 1042) {
			t.Fatalf("trace holds %d accepts and %d conflicts; want 2499 and 1042", accepts, conflicts)
		}
	}

	m, pops := core.HeapGreedy(in, core.GreedyOptions{})
	if pops != 8894 || m.Size() != 2499 {
		t.Fatalf("heap loop popped %d pairs and accepted %d; want 8894 and 2499", pops, m.Size())
	}
}

// TestBudgetedGreedyRunsTheSweep checks that a budgeted solve, whose Trace
// hook keeps the spending, runs the sweep: it scores greedyWorkInstance's
// |V|·|U| pairs exactly once and returns the heap-loop oracle's matching.
func TestBudgetedGreedyRunsTheSweep(t *testing.T) {
	in := greedyWorkInstance(t)
	rng := rand.New(rand.NewSource(3))
	b := &core.Budget{Prices: make([]float64, in.NumEvents()), Budgets: make([]float64, in.NumUsers())}
	for v := range b.Prices {
		b.Prices[v] = rng.Float64() * 10
	}
	for u := range b.Budgets {
		b.Budgets[u] = rng.Float64() * 20
	}
	kernel := obs.Default().Counter("geacc_sim_kernel_pairs_total")
	k0 := kernel.Value()
	m, err := core.BudgetedGreedy(in, b)
	if err != nil {
		t.Fatal(err)
	}
	if scored := kernel.Value() - k0; scored != int64(in.NumEvents()*in.NumUsers()) {
		t.Fatalf("budgeted solve scored %d kernel pairs, want |V|·|U| = %d", scored, in.NumEvents()*in.NumUsers())
	}
	spent := make([]float64, in.NumUsers())
	want, _ := core.HeapGreedy(in, core.GreedyOptions{
		Feasible: func(v, u int) bool { return b.Prices[v] <= b.Budgets[u]-spent[u]+1e-12 },
		Trace: func(s core.TraceStep) {
			if s.Accepted {
				spent[s.U] += b.Prices[s.V]
			}
		},
	})
	if m.Size() != want.Size() || m.MaxSum() != want.MaxSum() {
		t.Fatalf("budgeted sweep holds %d pairs, MaxSum %v; the heap loop %d, %v", m.Size(), m.MaxSum(), want.Size(), want.MaxSum())
	}
}
