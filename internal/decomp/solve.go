package decomp

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/partition"
	"github.com/ebsnlab/geacc/internal/solvecache"
)

// Decomposition-layer observability. decomp_components_total counts
// components actually dispatched to a solver (stranded singletons never
// reach the pool); the size histogram observes |V|+|U| per component. The
// catalog entry lives in docs/OBSERVABILITY.md.
var (
	decompRuns          = obs.Default().Counter("geacc_decomp_runs_total")
	decompComponents    = obs.Default().Counter("geacc_decomp_components_total")
	decompComponentSize = obs.Default().Histogram("geacc_decomp_component_size", obs.DefaultSizeBuckets)
	decompBuildSeconds  = obs.Default().Histogram("geacc_decomp_build_seconds", obs.DefaultLatencyBuckets)
)

// Options tunes a decomposed solve. Components run on a pool of
// poolSize workers; the merged matching does not depend on scheduling.
type Options struct {
	// Seed drives the random baselines. Each component derives its own
	// deterministic seed from Seed and its component index, so results do
	// not depend on scheduling.
	Seed int64
	// ExactNodeLimit bounds Prune-GEACC's search per component; 0 means
	// unlimited. When any component trips the limit, the merged matching is
	// still feasible (each tripped component contributes its best-so-far)
	// and core.ErrNodeLimit is returned alongside it.
	ExactNodeLimit int64
	// SolveCache, when non-nil, memoizes per-component matchings keyed by
	// sub-instance content (see internal/solvecache). A hit skips the
	// component solve entirely and returns a clone of the cached matching —
	// bit-identical to a fresh solve by the cache's key contract. The
	// server's rebalances do not set it; benchmark/trace.go's replay does.
	SolveCache *solvecache.Cache
	// SimID is the canonical similarity identity of the parent instance
	// (e.g. "euclidean/4/100"), required for SolveCache keying of
	// non-matrix instances; "" makes those components uncacheable.
	SimID string
	// WarmCache, when non-nil, enables warm-started min-cost flow for
	// mincostflow components: the previous solve of the same component
	// (keyed by its smallest parent event id) seeds flow and potentials so
	// a small delta re-solve skips most augmentations. Results stay
	// bit-exact vs the cold path.
	WarmCache *core.WarmCache
	// Shard, when non-nil, routes components whose |V|·|U| exceeds
	// Shard.MaxArea through internal/partition: the component is split
	// into balanced sub-shards, each solved through the ordinary
	// per-component machinery above (cache, warm flow, node limits), then
	// merged with a bounded-drift boundary repair. Components at or below
	// the threshold — and every component when Shard is nil — solve
	// exactly as before, bit-identically.
	Shard *partition.Options
}

// solveComponentFn is the per-component dispatch; tests swap it to inject
// faults and observe scheduling.
var solveComponentFn = solveComponent

// deterministicAlgos ignore their seed entirely, so their cache keys can
// drop it: an unchanged component then hits even when a delta elsewhere
// shifted its component index (and thus its derived seed).
var deterministicAlgos = map[string]bool{"greedy": true, "mincostflow": true, "exact": true}

// solveComponent runs one registry solver on one shard, consulting the
// optional per-instance solve cache and warm-flow cache from opt.
// Everything except cache hits and the warm mincostflow path goes through
// core.SolveContextBound, node-limited exact searches included, so the usual
// per-algorithm solve metrics and solve/<algo> spans fire once per
// component. A solve that computed the component's Corollary 1 relaxation
// on the way (cold or warm mincostflow) returns it as bound with ok set; a
// cache hit does not, because the cache stores only the matching.
func solveComponent(ctx context.Context, algo string, c Component, compIdx int, opt Options) (m *core.Matching, bound float64, ok bool, err error) {
	var key solvecache.Key
	cacheable := false
	if opt.SolveCache != nil {
		keySeed := int64(0)
		if !deterministicAlgos[algo] {
			keySeed = componentSeed(opt.Seed, compIdx)
		}
		key, cacheable = solvecache.InstanceKey(c.Sub, solvecache.KeySpec{
			Algo:      algo,
			Seed:      keySeed,
			SimID:     opt.SimID,
			NodeLimit: opt.ExactNodeLimit,
		})
		if cacheable {
			if v, hit := opt.SolveCache.Get(key); hit {
				return v.(*core.Matching).Clone(), 0, false, nil
			}
		}
	}
	if algo == "mincostflow" && opt.WarmCache != nil {
		var fr *core.FlowResult
		if fr, err = core.MinCostFlowWarmCtx(ctx, c.Sub, c.Events, c.Users, opt.WarmCache); err == nil {
			m, bound, ok = fr.Matching, fr.RelaxedMaxSum, true
		}
	} else {
		m, bound, ok, err = core.SolveContextBound(ctx, algo, c.Sub, componentRNG(opt.Seed, compIdx), opt.ExactNodeLimit)
	}
	if err == nil && cacheable && m != nil {
		opt.SolveCache.Put(key, m.Clone())
	}
	return m, bound, ok, err
}

// shardSolve routes one oversized component through internal/partition.
// Each sub-shard becomes an ordinary Component (events/users mapped back to
// parent indices) solved by solveComponentFn, so the solve cache, the
// warm-started min-cost flow (keyed by the shard's smallest parent event
// id), and the node-limited exact path all compose inside shards. The
// monolithic fallback is the exact call the unsharded path would have made.
//
// Shard bounds are dropped: they relax the shards, not the component, and
// sum below its bound by the cut pairs. Only a monolithic fallback reports
// the component's own bound.
func shardSolve(ctx context.Context, algo string, c Component, compIdx int, opt Options) (*core.Matching, float64, bool, *partition.Stats, error) {
	popt := opt.Shard.Normalized()
	solve := func(ctx context.Context, sub *core.Instance, events, users []int, shard int) (*core.Matching, error) {
		sc := Component{
			Events: mapParent(c.Events, events),
			Users:  mapParent(c.Users, users),
			Sub:    sub,
		}
		// Synthetic per-shard index: gives each shard of each component a
		// distinct deterministic seed stream for the random baselines
		// (deterministic solvers ignore it, and cache keys hash the shard
		// content, so rare index collisions across components are benign).
		m, _, _, err := solveComponentFn(ctx, algo, sc, compIdx*4096+shard+1, opt)
		return m, err
	}
	var bound float64
	var ok bool
	mono := func(ctx context.Context) (m *core.Matching, err error) {
		m, bound, ok, err = solveComponentFn(ctx, algo, c, compIdx, opt)
		return m, err
	}
	m, pst, err := partition.SolveComponent(ctx, c.Sub, popt, solve, mono)
	return m, bound, ok, pst, err
}

// mapParent lifts component-local shard indices to parent indices.
func mapParent(parent, local []int) []int {
	out := make([]int, len(local))
	for i, x := range local {
		out[i] = parent[x]
	}
	return out
}

// sumPartition adds up the stats of the components that split into shards,
// in component order, so float sums such as RepairGain do not depend on
// scheduling. It returns nil when no component split.
func sumPartition(parts []*partition.Stats, popt partition.Options) *core.PartitionStats {
	var agg *core.PartitionStats
	for _, st := range parts {
		if st == nil || st.Shards <= 1 {
			continue
		}
		if agg == nil {
			agg = &core.PartitionStats{
				DriftBudget: popt.DriftBudget,
				MaxArea:     popt.MaxArea,
				Strategy:    string(popt.Strategy),
			}
		}
		agg.Runs++
		agg.Shards += st.Shards
		if st.FellBack {
			agg.Fallbacks++
		}
		agg.CutPairs += st.CutPairs
		agg.CutConflicts += st.CutConflicts
		agg.RepairMoves += st.RepairMoves
		agg.RepairGain += st.RepairGain
		if !st.FellBack && st.DriftEstimate > agg.MaxDriftEstimate {
			agg.MaxDriftEstimate = st.DriftEstimate
		}
	}
	return agg
}

// componentSeed derives the deterministic per-component seed: a fixed odd
// multiplier spreads consecutive root seeds apart so component streams from
// different runs do not overlap trivially.
func componentSeed(seed int64, i int) int64 {
	return seed*0x9E3779B1 + int64(i)
}

func componentRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(componentSeed(seed, i)))
}

// poolSize is the worker count of a pool over n jobs: GOMAXPROCS(0),
// capped at n when there are any.
func poolSize(n int) int {
	workers := runtime.GOMAXPROCS(0)
	if n > 0 && workers > n {
		workers = n
	}
	return workers
}

// SolveContext runs the named registry solver over every component and
// merges the per-component matchings into one parent-indexed matching: the
// solve step over all components, merged into an empty base. The matching,
// pair order and float-summed MaxSum included, does not depend on
// scheduling. A cancellation or solver error returns a nil matching;
// core.ErrNodeLimit comes back with the feasible merge of best-so-far
// component matchings.
func (d *Decomposition) SolveContext(ctx context.Context, algo string, opt Options) (*core.Matching, error) {
	st, err := d.solveStep(ctx, algo, d.allIDs(), opt)
	if err != nil {
		return nil, err
	}
	return d.merge(nil, st.ms), st.budgetErr
}

// allIDs lists every component id in ascending order.
func (d *Decomposition) allIDs() []int {
	ids := make([]int, len(d.Components))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// step is what one solve step returns. ms holds each solved component's
// sub-instance matching by component id (nil for the rest); bounds holds,
// by component id, the Corollary 1 relaxation values the solves computed
// on the way (see RelaxedBound); partition sums the approximate-sharding
// stats (nil unless a component split); budgetErr is core.ErrNodeLimit
// when an exact search tripped its budget and kept its best-so-far.
type step struct {
	ms        []*core.Matching
	bounds    map[int]float64
	partition *core.PartitionStats
	budgetErr error
}

// solveStep is the one decomposed solve step under SolveContext, Run and
// RebalanceScoped: it runs the named registry solver over the components
// named by ids on one bounded worker pool.
//
// Determinism: per-component seeds derive from the component id, results
// land by component id, and everything that is summed is summed in
// component order after all workers finish, so a component's result is
// the same for any worker count and any ids that contain it.
//
// Cancellation: ctx is polled before each dispatch and inside every solver
// (each component solve runs under ctx); the first cancellation or solver
// error aborts the step and returns that error. core.ErrNodeLimit is the
// one non-fatal error: tripped components keep their best-so-far matching
// and the error comes back as budgetErr.
func (d *Decomposition) solveStep(ctx context.Context, algo string, ids []int, opt Options) (*step, error) {
	if err := core.LookupSolver(algo); err != nil {
		return nil, err
	}
	decompRuns.Inc()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(d.Components)
	st := &step{ms: make([]*core.Matching, n), bounds: make(map[int]float64)}
	if len(ids) == 0 {
		return st, nil
	}
	workers := poolSize(len(ids))
	rec := obs.RecorderFrom(ctx)
	sp := rec.Start("decomp/solve").
		Annotate("algo", algo).
		Annotate("components", len(ids)).
		Annotate("workers", workers)

	bounds := make([]float64, n)
	hasBound := make([]bool, n)
	parts := make([]*partition.Stats, n)
	errs := runPool(ctx, len(ids), workers, func(j int) error {
		i := ids[j]
		c := d.Components[i]
		csp := rec.Start("decomp/component").
			Annotate("component", i).
			Annotate("events", len(c.Events)).
			Annotate("users", len(c.Users))
		var err error
		if sh := opt.Shard; sh != nil &&
			int64(len(c.Events))*int64(len(c.Users)) > sh.Normalized().MaxArea {
			st.ms[i], bounds[i], hasBound[i], parts[i], err = shardSolve(ctx, algo, c, i, opt)
		} else {
			st.ms[i], bounds[i], hasBound[i], err = solveComponentFn(ctx, algo, c, i, opt)
		}
		decompComponents.Inc()
		decompComponentSize.Observe(float64(len(c.Events) + len(c.Users)))
		if err != nil && !errors.Is(err, core.ErrNodeLimit) {
			csp.Annotate("error", err.Error()).End()
			return err
		}
		csp.Annotate("pairs", st.ms[i].Size()).End()
		return err
	})

	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, core.ErrNodeLimit):
			st.budgetErr = err
		default:
			sp.Annotate("error", err.Error()).End()
			return nil, err
		}
	}
	var pairs int
	for _, i := range ids {
		pairs += st.ms[i].Size()
		if hasBound[i] {
			st.bounds[i] = bounds[i]
		}
	}
	if opt.Shard != nil {
		st.partition = sumPartition(parts, opt.Shard.Normalized())
	}
	sp.Annotate("pairs", pairs).End()
	return st, nil
}

// merge is the one rule for how component results become a parent
// matching: base's pairs outside the replaced components (those with a
// non-nil ms entry), in base's order, then each replaced component's pairs
// in ascending component order, mapped to parent indices. Every matched
// pair has sim > 0, so its event's component owns it.
func (d *Decomposition) merge(base []core.Assignment, ms []*core.Matching) *core.Matching {
	n := 0
	for _, p := range base {
		if ms[d.eventComp[p.V]] == nil {
			n++
		}
	}
	for _, m := range ms {
		if m != nil {
			n += m.Size()
		}
	}
	out := core.NewMatchingSized(len(d.eventComp), len(d.userComp), n)
	for _, p := range base {
		if ms[d.eventComp[p.V]] == nil {
			out.Add(p.V, p.U, p.Sim)
		}
	}
	for id, m := range ms {
		if m == nil {
			continue
		}
		c := d.Components[id]
		for _, p := range m.Pairs() {
			out.Add(c.Events[p.V], c.Users[p.U], p.Sim)
		}
	}
	return out
}

// runPool runs job(0), …, job(n-1) on a pool of workers goroutines and
// returns each job's error. ctx is polled before every job; after the first
// cancellation or fatal error (anything but core.ErrNodeLimit) the
// remaining jobs drain without running, their errors left nil, so the first
// fatal error by dispatch order is the one to report.
func runPool(ctx context.Context, n, workers int, job func(j int) error) []error {
	errs := make([]error, n)
	var failed atomic.Bool
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if failed.Load() {
					continue
				}
				if err := ctx.Err(); err != nil {
					errs[j] = err
					failed.Store(true)
					continue
				}
				errs[j] = job(j)
				if errs[j] != nil && !errors.Is(errs[j], core.ErrNodeLimit) {
					failed.Store(true)
				}
			}
		}()
	}
	for j := 0; j < n; j++ {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	return errs
}

// RelaxedBound returns the Corollary 1 bound of the parent instance,
// MaxSum(M∅), as the sum of its components' relaxation optima — exact
// because the relaxation is additive over components (DESIGN.md, "The
// relaxation bound is additive over components"); it differs from
// core.RelaxedUpperBound(d.Parent) only by float summation order.
//
// bounds holds, by component id, the relaxation values a solve step
// computed (mincostflow, unsharded, not a cache hit); those are reused. The
// rest — cache hits, other solvers, sharded components, and components the
// step did not solve — are relaxed here, on the worker pool the solves use.
// A sharded component gets its unsharded bound, so PartitionStats.BoundLoss
// still measures the loss against the unsharded relaxation. Sums run in
// component order, so the result does not depend on the worker count.
func (d *Decomposition) RelaxedBound(ctx context.Context, bounds map[int]float64) (float64, error) {
	all := make([]float64, len(d.Components))
	var gaps []int
	for i := range d.Components {
		if b, ok := bounds[i]; ok {
			all[i] = b
		} else {
			gaps = append(gaps, i)
		}
	}
	errs := runPool(ctx, len(gaps), poolSize(len(gaps)), func(j int) (err error) {
		i := gaps[j]
		all[i], err = core.RelaxedUpperBoundCtx(ctx, d.Components[i].Sub)
		return err
	})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	var sum float64
	for _, b := range all {
		sum += b
	}
	return sum, nil
}
