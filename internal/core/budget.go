package core

import (
	"fmt"
	"math"
)

// Budget extends GEACC with paid arrangements — the paper's introduction
// motivates global arrangement "especially when arrangements are paid".
// Each event charges an attendance price; each user has a spending budget
// across all their arranged events. The budget constraint is monotone
// (spending only grows), so Greedy-GEACC extends naturally through its
// Feasible hook; the approximation guarantee of Theorem 3 does not carry
// over (budgets add a knapsack flavor), but feasibility and termination do.
type Budget struct {
	// Prices[v] is the attendance price of event v (>= 0).
	Prices []float64
	// Budgets[u] is user u's total spending limit (>= 0).
	Budgets []float64
}

// Validate checks the budget's shape against an instance.
func (b *Budget) Validate(in *Instance) error {
	if len(b.Prices) != in.NumEvents() {
		return fmt.Errorf("core: %d prices for %d events", len(b.Prices), in.NumEvents())
	}
	if len(b.Budgets) != in.NumUsers() {
		return fmt.Errorf("core: %d budgets for %d users", len(b.Budgets), in.NumUsers())
	}
	for v, p := range b.Prices {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("core: event %d has invalid price %v", v, p)
		}
	}
	for u, l := range b.Budgets {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("core: user %d has invalid budget %v", u, l)
		}
	}
	return nil
}

// Spend returns user u's total spending under matching m.
func (b *Budget) Spend(m *Matching, u int) float64 {
	var total float64
	for _, v := range m.UserEvents(u) {
		total += b.Prices[v]
	}
	return total
}

// ValidateBudgeted checks full feasibility: the GEACC constraints plus
// every user's spending within budget.
func ValidateBudgeted(in *Instance, b *Budget, m *Matching) error {
	if err := b.Validate(in); err != nil {
		return err
	}
	if err := Validate(in, m); err != nil {
		return err
	}
	for u := 0; u < in.NumUsers(); u++ {
		if spend := b.Spend(m, u); spend > b.Budgets[u]+1e-9 {
			return fmt.Errorf("core: user %d spends %v over budget %v", u, spend, b.Budgets[u])
		}
	}
	return nil
}

// BudgetedGreedy runs Greedy-GEACC with the additional budget constraint:
// a pair (v, u) is assignable only while u's remaining budget covers v's
// price. The result satisfies ValidateBudgeted.
func BudgetedGreedy(in *Instance, b *Budget) (*Matching, error) {
	return BudgetedGreedyOpts(in, b, GreedyOptions{})
}

// BudgetedGreedyOpts is BudgetedGreedy with explicit greedy options (the
// Feasible hook is composed with the budget bookkeeping).
func BudgetedGreedyOpts(in *Instance, b *Budget, opt GreedyOptions) (*Matching, error) {
	if err := b.Validate(in); err != nil {
		return nil, err
	}
	m := GreedyOpts(in, b.greedyOptions(opt))
	if err := ValidateBudgeted(in, b, m); err != nil {
		return nil, fmt.Errorf("core: budgeted greedy broke feasibility: %w", err)
	}
	return m, nil
}

// greedyOptions composes the budget with opt for one run: Feasible also
// requires u's remaining budget to cover v's price, and each accept
// charges it. Spending only grows, so the predicate is monotone. The
// remaining budgets are fresh per call. The run stays untraced unless opt
// carries a Trace of its own.
func (b *Budget) greedyOptions(opt GreedyOptions) GreedyOptions {
	remaining := append([]float64(nil), b.Budgets...)
	userFeasible := opt.Feasible
	opt.Feasible = func(v, u int) bool {
		if b.Prices[v] > remaining[u]+1e-12 {
			return false
		}
		return userFeasible == nil || userFeasible(v, u)
	}
	opt.onAccept = func(v, u int) { remaining[u] -= b.Prices[v] }
	return opt
}
