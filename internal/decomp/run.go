package decomp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/solvecache"
)

// portfolioMembers are the solvers the "portfolio" algorithm races.
var portfolioMembers = []string{"greedy", "mincostflow", "random-v", "random-u"}

// Env is what Run needs besides the spec.
type Env struct {
	// Cache memoizes whole results under Spec.Key; nil disables caching.
	// SimID is the instance's similarity identity for the key (see
	// solvecache.KeySpec.SimID).
	Cache *solvecache.Cache
	SimID string
	// ExactAreaLimit, when positive, refuses exact solves whose |V|·|U| —
	// decomposed, the largest component's — exceeds it (*ExactGateError);
	// admitted diagnosed exact solves report it as Diagnostics.ExactGate.
	ExactAreaLimit int64
	// Solve, when non-nil, replaces the registry solver of a monolithic
	// run (geacc-solve's greedy -index ablation); never cached.
	Solve func(ctx context.Context, in *core.Instance) (*core.Matching, error)
}

// Result is a finished solve. Its matching is the caller's own; Diag and
// the stats may be shared with Env.Cache and must not be modified.
type Result struct {
	M *core.Matching
	// Diag is the Diagnostics artifact, present when the spec asked.
	Diag *core.Diagnostics
	// Elapsed is the solve's wall time, diagnostics included. A cache hit
	// reports the original solve's.
	Elapsed time.Duration
	// Cached reports that the result came from Env.Cache.
	Cached bool
	// Decomposition and Partition describe a decomposed solve; Partition
	// is nil unless a component sharded.
	Decomposition *core.DecompositionStats
	Partition     *core.PartitionStats
}

// MaxExactArea is the exact-search budget of the HTTP service: POST /solve
// passes it as Env.ExactAreaLimit, and RebalanceScoped always applies it to
// the largest component an exact rebalance would re-solve.
const MaxExactArea = 200

// MaxExactNodes is the exact-search node budget of the HTTP service: the
// area gate alone does not bound the search (one 11×10 instance runs for
// minutes), so /solve, rebalance and the chrome trace pass it as
// Spec.NodeLimit, per component when decomposed. On random clustered
// instances of area <= 200, 62% finish within 2e6 nodes, 66% within 1e7
// and 32% not within 2e7; 2e6 nodes take ~60 ms on a 2-vCPU Xeon.
const MaxExactNodes = 2_000_000

// ExactGateError refuses an exact search over its area limit: Run's over
// Env.ExactAreaLimit, or RebalanceScoped's over MaxExactArea (Rebalance).
type ExactGateError struct {
	Area, Limit           int64
	Decomposed, Rebalance bool
}

func (e *ExactGateError) Error() string {
	what, area, hint := "|V|·|U|", "instance area", "decompose or the CLI"
	switch {
	case e.Rebalance:
		what, area, hint = "component |V|·|U|", "largest re-solved component area", "a non-exact algo"
	case e.Decomposed:
		what, area, hint = "component |V|·|U|", "largest component area", "the CLI"
	}
	return fmt.Sprintf("decomp: exact search is limited to %s <= %d here (%s %d); use %s", what, e.Limit, area, e.Area, hint)
}

// Run is the one solve pipeline behind the facade, POST /solve and
// geacc-solve: cache lookup → decompose → partition → solve → diagnostics
// → validation → cache put. Invalid specs, gated exact solves, solver
// errors, cancellation and infeasible results are errors with a nil
// Result; an exact solve that hit spec.NodeLimit returns its feasible
// best-so-far together with core.ErrNodeLimit (and is not cached).
//
// Diagnosed runs record spans on the recorder traveling on ctx, or on a
// fresh one when there is none. Their Corollary 1 bound is taken from what
// the solve already computed wherever it can, so observing a solve does
// not cost another: a decomposed solve sums the per-component bounds its
// solve step returned (Decomposition.RelaxedBound), a monolithic
// mincostflow solve reuses its own, and anything else pays one relaxation
// of the whole instance.
func Run(ctx context.Context, in *core.Instance, spec Spec, env Env) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	key, cacheable := spec.Key(in, env.SimID)
	cacheable = cacheable && env.Cache != nil && env.Solve == nil
	if cacheable {
		if v, ok := env.Cache.Get(key); ok {
			// Rebuilt the way core.Matching.Clone does: the same pairs in
			// the same order, so MaxSum is bit-identical to the stored one.
			e := v.(*memo)
			hit := e.Result
			hit.M, hit.Cached = core.NewMatching(), true
			for _, p := range e.pairs {
				hit.M.Add(p.V, p.U, p.Sim)
			}
			return &hit, nil
		}
	}
	rec := obs.RecorderFrom(ctx)
	var countersBefore map[string]int64
	if spec.Diag {
		if rec == nil {
			rec = obs.NewRecorder()
			ctx = obs.ContextWithRecorder(ctx, rec)
		}
		countersBefore = obs.Default().Counters()
	}
	start := time.Now()
	res := &Result{}
	var (
		d        *Decomposition
		st       *step
		gate     *core.ExactGateStats
		bound    float64
		hasBound bool
		err      error
	)
	switch {
	case env.Solve != nil:
		res.M, err = env.Solve(ctx, in)
	case spec.Algo == "portfolio":
		res.M, _, err = core.PortfolioCtx(ctx, in, portfolioMembers, spec.Seed)
	case spec.Decomposed():
		if d, err = DecomposeContext(ctx, in); err != nil {
			return nil, err
		}
		if gate, err = exactGate(spec.Algo, d.MaxComponentArea(nil), env.ExactAreaLimit, true); err != nil {
			return nil, err
		}
		if st, err = d.solveStep(ctx, spec.Algo, d.allIDs(), spec.Options()); err == nil {
			res.M, err = d.merge(nil, st.ms), st.budgetErr
			res.Decomposition, res.Partition = d.Stats(spec.Workers), st.partition
		}
	default:
		if gate, err = exactGate(spec.Algo, int64(in.NumEvents())*int64(in.NumUsers()), env.ExactAreaLimit, false); err != nil {
			return nil, err
		}
		res.M, bound, hasBound, err = core.SolveContextBound(ctx, spec.Algo, in, rand.New(rand.NewSource(spec.Seed)), spec.NodeLimit)
	}
	var budgetErr error
	if errors.Is(err, core.ErrNodeLimit) {
		budgetErr, err = err, nil
	}
	if err != nil {
		return nil, err
	}
	if spec.Diag {
		elapsed, deltas := time.Since(start), obs.DiffCounters(countersBefore, obs.Default().Counters())
		switch {
		case d != nil:
			bound, err = d.RelaxedBound(ctx, st.bounds)
		case !hasBound:
			bound, err = core.RelaxedUpperBoundCtx(ctx, in)
		}
		if err != nil {
			return nil, err
		}
		res.Diag = core.BuildDiagnosticsBound(spec.Algo, in, res.M, elapsed, rec.Spans(), deltas, bound)
		res.Diag.ExactGate, res.Diag.Decomposition = gate, res.Decomposition
		if pst := res.Partition; pst != nil {
			// The measured loss vs the unsharded bound is this run's gap:
			// RelaxedBound relaxes sharded components unsharded.
			pst.BoundLoss = res.Diag.Gap
			res.Diag.Partition = pst
		}
	}
	res.Elapsed = time.Since(start)
	if err := core.Validate(in, res.M); err != nil {
		return nil, fmt.Errorf("decomp: infeasible matching: %w", err)
	}
	if cacheable && budgetErr == nil {
		e := &memo{Result: *res, pairs: append([]core.Assignment(nil), res.M.Pairs()...)}
		e.M = nil
		env.Cache.Put(key, e)
	}
	return res, budgetErr
}

// memo is a Result as Env.Cache holds it: the matching kept as its pairs
// in insertion order, a third of a core.Matching's footprint (no per-node
// index maps), so a full cache costs what the rendered responses would.
type memo struct {
	Result
	pairs []core.Assignment
}

// exactGate applies a positive area limit to an exact solve of the given
// area: nil stats when no gate applies, an *ExactGateError when it refuses.
func exactGate(algo string, area, limit int64, decomposed bool) (*core.ExactGateStats, error) {
	if algo != "exact" || limit <= 0 {
		return nil, nil
	}
	if area > limit {
		return nil, &ExactGateError{Area: area, Limit: limit, Decomposed: decomposed}
	}
	return &core.ExactGateStats{ComponentArea: area, Limit: limit}, nil
}
