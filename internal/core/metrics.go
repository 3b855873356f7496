package core

import (
	"time"

	"github.com/ebsnlab/geacc/internal/obs"
)

// The package's metric instruments, registered once against the global
// obs registry. Per-run work counts are accumulated locally inside each
// algorithm and flushed with a single Add at the end of the run, so the
// hot loops never touch an atomic per iteration. The full catalog, with
// semantics, lives in docs/OBSERVABILITY.md.
var (
	greedyRuns     = obs.Default().Counter("geacc_greedy_runs_total")
	greedyPops     = obs.Default().Counter("geacc_greedy_pops_total")
	greedyAccepted = obs.Default().Counter("geacc_greedy_accepted_total")
	greedyRejected = obs.Default().Counter("geacc_greedy_rejected_total")

	mcflowRuns          = obs.Default().Counter("geacc_mcflow_runs_total")
	mcflowAugmentations = obs.Default().Counter("geacc_mcflow_augmentations_total")
	mcflowDeltaUnits    = obs.Default().Counter("geacc_mcflow_delta_units_total")
	mcflowSearches      = obs.Default().Counter("geacc_mcflow_searches_total")
	mcflowDijkstraPops  = obs.Default().Counter("geacc_mcflow_dijkstra_pops_total")
	mcflowArcScans      = obs.Default().Counter("geacc_mcflow_arc_scans_total")

	mcflowWarmAttempts      = obs.Default().Counter("geacc_mcflow_warm_attempts_total")
	mcflowWarmHits          = obs.Default().Counter("geacc_mcflow_warm_hits_total")
	mcflowWarmRestoredUnits = obs.Default().Counter("geacc_mcflow_warm_restored_units_total")
	mcflowWarmColdFallbacks = obs.Default().Counter("geacc_mcflow_warm_cold_fallbacks_total")
	mcflowWarmCycles        = obs.Default().Counter("geacc_mcflow_warm_cycles_canceled_total")
	mcflowWarmBFPasses      = obs.Default().Counter("geacc_mcflow_warm_bf_passes_total")

	exactRuns     = obs.Default().Counter("geacc_exact_runs_total")
	exactNodes    = obs.Default().Counter("geacc_exact_nodes_total")
	exactPrunes   = obs.Default().Counter("geacc_exact_prunes_total")
	exactComplete = obs.Default().Counter("geacc_exact_complete_total")

	localSearchRuns   = obs.Default().Counter("geacc_localsearch_runs_total")
	localSearchRounds = obs.Default().Counter("geacc_localsearch_rounds_total")

	// unionPairs counts the similarity evaluations Arranger.UnionRoots
	// spends extending the kept union graph (the decomposition a rebalance
	// reads); a full DecomposeContext scan counts under the kernel pairs.
	unionPairs = obs.Default().Counter("geacc_decomp_union_pairs_total")

	portfolioRuns     = obs.Default().Counter("geacc_portfolio_runs_total")
	portfolioFailures = obs.Default().Counter("geacc_portfolio_failures_total")
)

// gapBuckets are the histogram bounds for the optimality gap
// (RelaxedUpperBound - MaxSum) / RelaxedUpperBound: a ratio in [0, 1],
// bucketed finely near 0 where the approximation algorithms actually land
// (Theorems 2 and 3 put greedy/mincostflow within constant factors, and in
// practice well under 10% of the Corollary 1 bound).
var gapBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1,
}

// observeGap records one diagnosed solve's optimality gap: the
// per-algorithm distribution (geacc_solve_gap) and the most recent value
// (geacc_solve_last_gap), both keyed by algo.
func observeGap(algo string, gap float64) {
	reg := obs.Default()
	reg.Histogram(obs.Label("geacc_solve_gap", "algo", algo), gapBuckets).Observe(gap)
	reg.FloatGauge(obs.Label("geacc_solve_last_gap", "algo", algo)).Set(gap)
}

// observeFlowWork flushes one relaxation's search work: the units pushed
// and retreated, and the dense event-space searches with the events they
// settled and the compound arcs they relaxed.
func observeFlowWork(w flowWork) {
	mcflowAugmentations.Add(w.paths)
	mcflowSearches.Add(w.searches)
	mcflowDijkstraPops.Add(w.pops)
	mcflowArcScans.Add(w.scans)
}

// observeSolve records one SolveContext outcome under the per-algorithm
// solve metrics.
func observeSolve(algo string, elapsed time.Duration, err error) {
	reg := obs.Default()
	reg.Counter(obs.Label("geacc_solve_total", "algo", algo)).Inc()
	if err != nil {
		reg.Counter(obs.Label("geacc_solve_errors_total", "algo", algo)).Inc()
		return
	}
	reg.Histogram(obs.Label("geacc_solve_seconds", "algo", algo),
		obs.DefaultLatencyBuckets).Observe(elapsed.Seconds())
}

// observeLocalSearchMoves flushes one LocalSearch run's move counts.
func observeLocalSearchMoves(stats LocalSearchStats) {
	reg := obs.Default()
	reg.Counter(obs.Label("geacc_localsearch_moves_total", "kind", "add")).Add(int64(stats.Additions))
	reg.Counter(obs.Label("geacc_localsearch_moves_total", "kind", "replace")).Add(int64(stats.Replacements))
	reg.Counter(obs.Label("geacc_localsearch_moves_total", "kind", "swap")).Add(int64(stats.Swaps))
}

// observePortfolioWin credits the solver whose matching won a portfolio run.
func observePortfolioWin(algo string) {
	obs.Default().Counter(obs.Label("geacc_portfolio_wins_total", "algo", algo)).Inc()
}

// observeArrangerOp records one dynamic-arranger operation and its latency;
// used as `defer observeArrangerOp("add_event", time.Now())`.
func observeArrangerOp(op string, start time.Time) {
	reg := obs.Default()
	reg.Counter(obs.Label("geacc_arranger_ops_total", "op", op)).Inc()
	reg.Histogram(obs.Label("geacc_arranger_op_seconds", "op", op),
		obs.DefaultLatencyBuckets).Observe(time.Since(start).Seconds())
}
