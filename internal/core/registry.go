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

// Solver is the uniform signature the experiment harness drives: solve the
// instance, using rng for any internal randomness (deterministic algorithms
// ignore it).
type Solver func(in *Instance, rng *rand.Rand) *Matching

// Solvers returns the algorithm registry keyed by the names used throughout
// the paper's plots: greedy, mincostflow, random-v, random-u, and exact
// (Prune-GEACC).
func Solvers() map[string]Solver {
	return map[string]Solver{
		"greedy": func(in *Instance, _ *rand.Rand) *Matching {
			return Greedy(in)
		},
		"mincostflow": func(in *Instance, _ *rand.Rand) *Matching {
			return MinCostFlow(in).Matching
		},
		"random-v": RandomV,
		"random-u": RandomU,
		"exact": func(in *Instance, _ *rand.Rand) *Matching {
			m, _, err := Exact(in)
			if err != nil {
				panic(fmt.Sprintf("core: exact solver failed: %v", err))
			}
			return m
		},
	}
}

// SolverNames returns the registry keys in stable order.
func SolverNames() []string {
	names := make([]string, 0)
	for name := range Solvers() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LookupSolver resolves one registry entry, with a helpful error listing the
// valid names.
func LookupSolver(name string) (Solver, error) {
	s, ok := Solvers()[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown solver %q (valid: %v)", name, SolverNames())
	}
	return s, nil
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
// mincostflow does: the relaxation is its first step, and the value it
// returns is bit-identical to RelaxedUpperBound(in), so a diagnosed solve
// can report it without solving the relaxation a second time.
//
// nodeLimit bounds exact's search (0 means unlimited). A tripped limit is
// still a metered solve: it counts as an errored solve, and the feasible
// best-so-far matching comes back with an error that wraps ErrNodeLimit and
// names the limit.
func SolveContextBound(ctx context.Context, name string, in *Instance, rng *rand.Rand, nodeLimit int64) (m *Matching, bound float64, ok bool, err error) {
	solve, err := LookupSolver(name)
	if err != nil {
		return nil, 0, false, err
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
	switch name {
	case "greedy":
		m, err = GreedyCtx(ctx, in, GreedyOptions{})
	case "mincostflow":
		var fr *FlowResult
		fr, err = MinCostFlowCtx(ctx, in, FlowOptions{})
		if err == nil {
			m, bound, ok = fr.Matching, fr.RelaxedMaxSum, true
		}
	case "exact":
		m, _, err = ExactOpts(in, ExactOptions{Ctx: ctx, NodeLimit: nodeLimit})
	default:
		m = solve(in, rng)
	}
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
