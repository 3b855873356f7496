package geacc

import (
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/decomp"
)

// SolvePortfolio races Greedy, MinCostFlow and both random baselines
// concurrently and returns the best feasible arrangement. Useful when the
// instance's conflict structure makes the winner hard to predict (greedy
// usually wins, but MinCostFlow is optimal when conflicts are absent).
func (p *Problem) SolvePortfolio(seed int64) (*Matching, error) {
	return p.run(decomp.Spec{Algo: "portfolio", Seed: seed})
}

// Improve post-optimizes a feasible matching with 1-exchange local search
// (add a feasible pair; replace a pair's user or event with a
// strictly-better feasible alternative) until a local optimum. The result
// is never worse than the input.
func (p *Problem) Improve(m *Matching) (*Matching, error) {
	improved, _, err := core.LocalSearch(p.in, m, core.LocalSearchOptions{})
	return improved, err
}

// SolveBudgeted runs Greedy-GEACC with paid arrangements: prices[v] is
// event v's attendance price and budgets[u] caps user u's total spending.
// The returned arrangement satisfies the capacity, conflict, and budget
// constraints.
func (p *Problem) SolveBudgeted(prices, budgets []float64) (*Matching, error) {
	b := &core.Budget{Prices: prices, Budgets: budgets}
	return core.BudgetedGreedy(p.in, b)
}

// Trace solves with Greedy-GEACC while recording its decisions — the
// walkthrough narrative of the paper's Example 3: one step per pair the
// sweep reaches, in descending similarity, while both its endpoints have
// capacity. Useful for explaining to an organizer why a particular user
// was (not) arranged. Tracing does not change the matching.
func (p *Problem) Trace() (*Matching, []TraceStep) {
	var steps []TraceStep
	m := core.GreedyOpts(p.in, core.GreedyOptions{
		Trace: func(s core.TraceStep) { steps = append(steps, s) },
	})
	return m, steps
}

// TraceStep records one greedy decision: the pair, whether it was
// accepted, and the rejection reason otherwise ("conflict": the pair
// conflicts with one of the user's arranged events, or a budget refused
// it).
type TraceStep = core.TraceStep
