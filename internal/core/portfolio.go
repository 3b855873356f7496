package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
)

// PortfolioResult reports one solver's outcome inside a portfolio run.
type PortfolioResult struct {
	Name     string
	Matching *Matching
	Err      error
}

// PortfolioCtx runs several solvers concurrently on the same instance and
// returns the best feasible matching plus every individual outcome (sorted
// by solver name). GEACC's approximations have incomparable strengths —
// greedy usually wins but MinCostFlow is optimal when conflicts are absent
// or sparse per user — so racing them and keeping the best is a practical
// meta-solver. Solvers must not mutate the instance (none in this package
// do); each receives an independent PRNG derived from seed.
//
// Every member runs through SolveContext under ctx, so cancellation stops
// the long solvers (see SolveContext) and each member's run lands in the
// per-algorithm solve metrics. The portfolio itself records
// geacc_portfolio_runs_total, the winner under geacc_portfolio_wins_total,
// and all-members-failed outcomes under geacc_portfolio_failures_total.
func PortfolioCtx(ctx context.Context, in *Instance, names []string, seed int64) (*Matching, []PortfolioResult, error) {
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("core: empty portfolio")
	}
	for _, name := range names {
		if err := LookupSolver(name); err != nil {
			return nil, nil, err
		}
	}
	portfolioRuns.Inc()

	results := make([]PortfolioResult, len(names))
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					results[i].Err = fmt.Errorf("core: solver %s panicked: %v", names[i], r)
				}
			}()
			results[i].Name = names[i]
			rng := rand.New(rand.NewSource(seed + int64(i)*7919))
			m, err := SolveContext(ctx, names[i], in, rng)
			if err != nil {
				results[i].Err = err
				return
			}
			if err := Validate(in, m); err != nil {
				results[i].Err = err
				return
			}
			results[i].Matching = m
		}(i)
	}
	wg.Wait()

	var best *Matching
	var bestName string
	for _, r := range results {
		if r.Err != nil || r.Matching == nil {
			continue
		}
		if best == nil || r.Matching.MaxSum() > best.MaxSum() {
			best, bestName = r.Matching, r.Name
		}
	}
	if best == nil {
		portfolioFailures.Inc()
		if err := ctx.Err(); err != nil {
			return nil, results, err
		}
		return nil, results, fmt.Errorf("core: every portfolio solver failed")
	}
	observePortfolioWin(bestName)
	return best, results, nil
}
