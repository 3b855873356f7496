package decomp

import (
	"context"
	"errors"
	"fmt"
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

// Options tunes a decomposed solve.
type Options struct {
	// Workers bounds the component worker pool; <= 0 means GOMAXPROCS(0).
	// The pool never exceeds the component count. The merged matching is
	// invariant to this value.
	Workers int
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
	// bit-identical to a fresh solve by the cache's key contract.
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
// Everything except cache hits, the warm mincostflow path, and the
// node-limited exact path goes through core.SolveContextBound (solveOne),
// so the usual per-algorithm solve metrics and solve/<algo> spans fire once
// per component. A solve that computed the component's Corollary 1 relaxation
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
		m, bound, ok, err = solveOne(ctx, algo, c.Sub, componentRNG(opt.Seed, compIdx), opt.ExactNodeLimit)
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
func (d *Decomposition) shardSolve(ctx context.Context, algo string, c Component, compIdx int, opt Options) (*core.Matching, float64, bool, error) {
	popt := opt.Shard.Normalized()
	if popt.Workers == 0 {
		popt.Workers = opt.Workers
	}
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
	if pst != nil && pst.Shards > 1 {
		d.recordPartition(pst, popt)
	}
	return m, bound, ok, err
}

// mapParent lifts component-local shard indices to parent indices.
func mapParent(parent, local []int) []int {
	out := make([]int, len(local))
	for i, x := range local {
		out[i] = parent[x]
	}
	return out
}

func (d *Decomposition) recordPartition(st *partition.Stats, popt partition.Options) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.partStats == nil {
		d.partStats = &core.PartitionStats{
			DriftBudget: popt.DriftBudget,
			MaxArea:     popt.MaxArea,
			Strategy:    string(popt.Strategy),
		}
	}
	agg := d.partStats
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

// componentSeed derives the deterministic per-component seed: a fixed odd
// multiplier spreads consecutive root seeds apart so component streams from
// different runs do not overlap trivially.
func componentSeed(seed int64, i int) int64 {
	return seed*0x9E3779B1 + int64(i)
}

func componentRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(componentSeed(seed, i)))
}

func normalizeWorkers(workers, components int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if components > 0 && workers > components {
		workers = components
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// SolveContext runs the named registry solver over every component in a
// bounded worker pool and merges the per-component matchings into one
// parent-indexed matching.
//
// Determinism: components are numbered by first appearance, per-component
// seeds derive from that number, and results are merged in component order
// after all workers finish — so the matching (including its pair order and
// float-summed MaxSum) is identical for any worker count.
//
// Cancellation: ctx is polled before each dispatch and inside every solver
// (each component solve runs under ctx); the first cancellation or solver
// error aborts the run and returns that error with a nil matching.
// core.ErrNodeLimit is the one non-fatal error: tripped components keep
// their best-so-far matching and the error is returned with the merge.
func (d *Decomposition) SolveContext(ctx context.Context, algo string, opt Options) (*core.Matching, error) {
	n := len(d.Components)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	results, budgetErr, err := d.solveSet(ctx, algo, ids, opt)
	if err != nil {
		return nil, err
	}
	// Merge in component order: sub indices map back through the
	// component's parent-index slices. Similarities are bit-identical to
	// the parent's, so the merged matching validates against it.
	merged := core.NewMatching()
	for i, c := range d.Components {
		if results[i] == nil {
			continue
		}
		for _, p := range results[i].Pairs() {
			merged.Add(c.Events[p.V], c.Users[p.U], p.Sim)
		}
	}
	return merged, budgetErr
}

// SolveSubset runs the named registry solver over just the components named
// by ids (global component indices, as returned by DirtyComponents) and
// returns one sub-instance matching per solved component, keyed by
// component id. Seeds derive from the global component index, so a subset
// solve of component i is bit-identical to that component's share of a full
// SolveContext run. This is the incremental path: a delta that touched one
// component re-solves one component, not the instance.
func (d *Decomposition) SolveSubset(ctx context.Context, algo string, ids []int, opt Options) (map[int]*core.Matching, error) {
	for _, id := range ids {
		if id < 0 || id >= len(d.Components) {
			return nil, fmt.Errorf("decomp: component id %d out of range [0, %d)", id, len(d.Components))
		}
	}
	results, budgetErr, err := d.solveSet(ctx, algo, ids, opt)
	if err != nil {
		return nil, err
	}
	out := make(map[int]*core.Matching, len(ids))
	for id, m := range results {
		if m != nil {
			out[id] = m
		}
	}
	return out, budgetErr
}

// solveSet is the shared worker pool under SolveContext and SolveSubset: it
// dispatches the components named by ids and returns their matchings keyed
// by component id. Fatal errors return a nil map; core.ErrNodeLimit is
// non-fatal and returned alongside the results.
func (d *Decomposition) solveSet(ctx context.Context, algo string, ids []int, opt Options) (map[int]*core.Matching, error, error) {
	if _, err := core.LookupSolver(algo); err != nil {
		return nil, nil, err
	}
	decompRuns.Inc()
	d.mu.Lock()
	d.partStats = nil // fresh aggregates per solve run
	d.bounds = nil
	d.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	n := len(ids)
	if n == 0 {
		return map[int]*core.Matching{}, nil, nil
	}
	workers := normalizeWorkers(opt.Workers, n)
	rec := obs.RecorderFrom(ctx)
	sp := rec.Start("decomp/solve").
		Annotate("algo", algo).
		Annotate("components", n).
		Annotate("workers", workers)

	results := make([]*core.Matching, n)
	bounds := make([]float64, n)
	hasBound := make([]bool, n)
	errs := runPool(ctx, n, workers, func(j int) error {
		i := ids[j]
		c := d.Components[i]
		csp := rec.Start("decomp/component").
			Annotate("component", i).
			Annotate("events", len(c.Events)).
			Annotate("users", len(c.Users))
		var m *core.Matching
		var err error
		if sh := opt.Shard; sh != nil &&
			int64(len(c.Events))*int64(len(c.Users)) > sh.Normalized().MaxArea {
			m, bounds[j], hasBound[j], err = d.shardSolve(ctx, algo, c, i, opt)
		} else {
			m, bounds[j], hasBound[j], err = solveComponentFn(ctx, algo, c, i, opt)
		}
		decompComponents.Inc()
		decompComponentSize.Observe(float64(len(c.Events) + len(c.Users)))
		results[j] = m
		if err != nil && !errors.Is(err, core.ErrNodeLimit) {
			csp.Annotate("error", err.Error()).End()
			return err
		}
		csp.Annotate("pairs", m.Size()).End()
		return err
	})

	var budgetErr error
	for j, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, core.ErrNodeLimit):
			budgetErr = err
		default:
			sp.Annotate("error", err.Error()).End()
			return nil, nil, errs[j]
		}
	}
	byID := make(map[int]*core.Matching, n)
	byIDBound := make(map[int]float64, n)
	var pairs int
	for j, id := range ids {
		if results[j] != nil {
			byID[id] = results[j]
			pairs += results[j].Size()
		}
		if hasBound[j] {
			byIDBound[id] = bounds[j]
		}
	}
	d.mu.Lock()
	d.bounds = byIDBound
	d.mu.Unlock()
	sp.Annotate("pairs", pairs).End()
	return byID, budgetErr, nil
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
// Components whose most recent SolveContext/SolveSubset solve computed
// their relaxation (mincostflow, unsharded, not a cache hit) reuse that
// value. The rest — cache hits, other solvers, sharded components, and
// components the last run did not solve — are relaxed here, on the worker
// pool the solves use. A sharded component gets its unsharded bound, so
// PartitionStats.BoundLoss still measures the loss against the unsharded
// relaxation. Sums run in component order, so the result does not depend
// on the worker count.
func (d *Decomposition) RelaxedBound(ctx context.Context) (float64, error) {
	bounds := make([]float64, len(d.Components))
	var gaps []int
	d.mu.Lock()
	for i := range d.Components {
		if b, ok := d.bounds[i]; ok {
			bounds[i] = b
		} else {
			gaps = append(gaps, i)
		}
	}
	d.mu.Unlock()
	errs := runPool(ctx, len(gaps), normalizeWorkers(0, len(gaps)), func(j int) (err error) {
		i := gaps[j]
		bounds[i], err = core.RelaxedUpperBoundCtx(ctx, d.Components[i].Sub)
		return err
	})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	var sum float64
	for _, b := range bounds {
		sum += b
	}
	return sum, nil
}
