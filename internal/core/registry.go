package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/ebsnlab/geacc/internal/obs"
)

// solveFunc is one registry entry: solve in under ctx, using rng for any
// internal randomness (deterministic algorithms ignore it) and nodeLimit to
// bound exact's search (0 means unlimited). A solver that computed the
// Corollary 1 bound on the way returns it with ok set.
type solveFunc func(ctx context.Context, in *Instance, rng *rand.Rand, nodeLimit int64) (m *Matching, bound float64, ok bool, err error)

// solvers is the algorithm registry, keyed by the names used throughout the
// paper's plots: greedy, mincostflow, random-v, random-u, and exact
// (Prune-GEACC). Each algorithm is wired here and nowhere else.
var solvers = map[string]solveFunc{
	"greedy": func(ctx context.Context, in *Instance, _ *rand.Rand, _ int64) (*Matching, float64, bool, error) {
		m, err := GreedyCtx(ctx, in, GreedyOptions{})
		return m, 0, false, err
	},
	// The relaxation is mincostflow's first step; the value it returns is
	// bit-identical to RelaxedUpperBound(in).
	"mincostflow": func(ctx context.Context, in *Instance, _ *rand.Rand, _ int64) (*Matching, float64, bool, error) {
		fr, err := MinCostFlowCtx(ctx, in, FlowOptions{})
		if err != nil {
			return nil, 0, false, err
		}
		return fr.Matching, fr.RelaxedMaxSum, true, nil
	},
	"exact": func(ctx context.Context, in *Instance, _ *rand.Rand, nodeLimit int64) (*Matching, float64, bool, error) {
		m, _, err := ExactOpts(in, ExactOptions{Ctx: ctx, NodeLimit: nodeLimit})
		return m, 0, false, err
	},
	"random-v": func(_ context.Context, in *Instance, rng *rand.Rand, _ int64) (*Matching, float64, bool, error) {
		return RandomV(in, rng), 0, false, nil
	},
	"random-u": func(_ context.Context, in *Instance, rng *rand.Rand, _ int64) (*Matching, float64, bool, error) {
		return RandomU(in, rng), 0, false, nil
	},
}

// SolverNames returns the registry keys in stable order.
func SolverNames() []string {
	names := make([]string, 0, len(solvers))
	for name := range solvers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LookupSolver reports whether name is a registry solver, with a helpful
// error listing the valid names when it is not.
func LookupSolver(name string) error {
	if _, ok := solvers[name]; !ok {
		return fmt.Errorf("core: unknown solver %q (valid: %v)", name, SolverNames())
	}
	return nil
}

// SolveContext runs the named registry solver under ctx, recording the
// per-algorithm solve metrics (geacc_solve_total, geacc_solve_seconds,
// geacc_solve_errors_total) and — when a recorder travels on ctx via
// obs.ContextWithRecorder — one trace span per solve.
//
// Cancellation is honored by the solvers that can actually run long:
// mincostflow aborts between augmenting paths, exact between search-node
// expansions, and greedy between heap pops. The random baselines check ctx
// only once, before starting (they are linear-time shuffles). A canceled
// run returns ctx's error and a nil matching.
func SolveContext(ctx context.Context, name string, in *Instance, rng *rand.Rand) (*Matching, error) {
	m, _, _, err := SolveContextBound(ctx, name, in, rng, 0)
	return m, err
}

// SolveContextBound is SolveContext that also hands back the Corollary 1
// bound MaxSum(M∅) when the solver computed it on the way (ok true). Only
// mincostflow does, so a diagnosed solve can report it without solving the
// relaxation a second time.
//
// nodeLimit bounds exact's search (0 means unlimited). A tripped limit is
// still a metered solve: it counts as an errored solve, and the feasible
// best-so-far matching comes back with an error that wraps ErrNodeLimit and
// names the limit.
func SolveContextBound(ctx context.Context, name string, in *Instance, rng *rand.Rand, nodeLimit int64) (m *Matching, bound float64, ok bool, err error) {
	solve, known := solvers[name]
	if !known {
		return nil, 0, false, LookupSolver(name)
	}
	if err := ctx.Err(); err != nil {
		// Canceled before starting still counts as an errored solve, so
		// dashboards see load shed under cancellation storms.
		observeSolve(name, 0, err)
		return nil, 0, false, err
	}
	sp := obs.RecorderFrom(ctx).Start("solve/"+name).
		Annotate("events", in.NumEvents()).
		Annotate("users", in.NumUsers())
	start := time.Now()
	m, bound, ok, err = solve(ctx, in, rng, nodeLimit)
	observeSolve(name, time.Since(start), err)
	if err != nil {
		sp.Annotate("error", err.Error()).End()
		if errors.Is(err, ErrNodeLimit) {
			return m, 0, false, fmt.Errorf("%w of %d nodes", err, nodeLimit)
		}
		return nil, 0, false, err
	}
	sp.Annotate("pairs", m.Size()).Annotate("max_sum", m.MaxSum()).End()
	return m, bound, ok, nil
}
