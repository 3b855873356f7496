package core

import (
	"context"
	"github.com/ebsnlab/geacc/internal/obs"
)

// FlowResult carries the output of MinCostFlow-GEACC plus diagnostics used
// by the experiments and tests.
type FlowResult struct {
	// Matching is the final feasible arrangement M (after conflict
	// resolution).
	Matching *Matching
	// Relaxed is M∅, the optimal arrangement of the conflict-free
	// relaxation. It may assign users to conflicting events.
	Relaxed *Matching
	// RelaxedMaxSum = MaxSum(M∅). By Corollary 1 it upper-bounds
	// MaxSum(M_OPT) of the conflict-constrained instance.
	RelaxedMaxSum float64
	// Delta is the flow amount Δ whose minimum-cost flow produced M∅.
	Delta int64
}

// FlowOptions tunes MinCostFlow-GEACC beyond the paper's defaults.
type FlowOptions struct {
	// ExactResolution replaces the paper's greedy per-user conflict
	// resolution (lines 8-14) with an exact maximum-weight-independent-set
	// computation per user. MWIS is NP-hard in general, but each user's
	// candidate set in M∅ has at most c_u ≤ |V| events, and a bitmask
	// dynamic program over those few events is cheap. An extension/ablation
	// knob: it can only improve MaxSum, and Theorem 2's ratio still holds.
	ExactResolution bool
}

// MinCostFlowOpts runs MinCostFlow-GEACC (Algorithm 1 of the paper) with
// explicit options: solve the conflict-free relaxation exactly via
// minimum-cost flow over all flow amounts Δ ∈ [Δmin, Δmax], keep the best
// arrangement M∅, then resolve each user's conflicts greedily (a
// maximum-weight-independent-set heuristic, or exactly with
// opt.ExactResolution).
// The result is feasible and within 1/max c_u of the optimum (Theorem 2).
//
// The Δ-sweep is computed incrementally: the successive-shortest-path solver
// yields, after the k-th unit of augmentation, a minimum-cost flow of amount
// k, and augmenting-path costs never decrease, so MaxSum(M∅^Δ) = Δ − cost(Δ) is
// concave in Δ. Augmentation therefore stops at the first shortest path with
// per-unit cost ≥ 1 — exactly the Δ maximizing the sweep of lines 3-7.
func MinCostFlowOpts(in *Instance, opt FlowOptions) *FlowResult {
	res, _ := minCostFlowCtx(context.Background(), in, opt)
	return res
}

// MinCostFlowCtx runs MinCostFlow-GEACC under a context. Cancellation is
// polled between successive shortest-path searches — the unit of work of
// the Δ-sweep, and the only place the algorithm spends superlinear time —
// so a disconnected client stops a long run within one O(|V|²)
// event-space search, which pushes one unit. A canceled run returns
// ctx's error and a nil result.
func MinCostFlowCtx(ctx context.Context, in *Instance, opt FlowOptions) (*FlowResult, error) {
	res, err := minCostFlowCtx(ctx, in, opt)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func minCostFlowCtx(ctx context.Context, in *Instance, opt FlowOptions) (*FlowResult, error) {
	sp := obs.RecorderFrom(ctx).Start("mincostflow/relax")
	res, _, err := relaxedOptimum(ctx, in, nil, nil, nil, nil)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = obs.RecorderFrom(ctx).Start("mincostflow/resolve")
	if opt.ExactResolution {
		res.Matching = resolveConflictsExact(in, res.Relaxed)
	} else {
		res.Matching = resolveConflicts(in, res.Relaxed)
	}
	sp.End()
	return res, nil
}

// RelaxedUpperBound returns MaxSum(M∅), the optimum of the conflict-free
// relaxation, which upper-bounds the conflict-constrained optimum
// (Corollary 1). Tests use it to sandwich algorithm results.
func RelaxedUpperBound(in *Instance) float64 {
	res, _, _ := relaxedOptimum(context.Background(), in, nil, nil, nil, nil)
	return res.RelaxedMaxSum
}

// RelaxedUpperBoundCtx is RelaxedUpperBound under a context, polled between
// shortest-path searches like MinCostFlowCtx; a canceled run returns ctx's
// error.
func RelaxedUpperBoundCtx(ctx context.Context, in *Instance) (float64, error) {
	res, _, err := relaxedOptimum(ctx, in, nil, nil, nil, nil)
	if err != nil {
		return 0, err
	}
	return res.RelaxedMaxSum, nil
}

// relaxedOptimum solves the GEACC instance with CF = ∅ exactly (Lemma 1)
// via the minimum-cost-flow reduction of Section III.A, searched in event
// space (eventFlow) one unit per search and polling ctx between searches.
// It is the one relaxation behind every flow solve. The cold path passes
// no ids, no previous state, and no cache. The warm path
// (MinCostFlowWarmCtx) passes the component's parent ids, the FlowState of
// its last solve (nil on a cache miss), and its WarmCache, which supplies
// the similarity table of the returned state for the next solve.
func relaxedOptimum(ctx context.Context, in *Instance, events, users []int, prev *FlowState, wc *WarmCache) (*FlowResult, *FlowState, error) {
	mcflowRuns.Inc()
	nv, nu := in.NumEvents(), in.NumUsers()
	if nv == 0 || nu == 0 {
		return &FlowResult{Relaxed: NewMatching()}, nil, nil
	}

	// rows[v*nu+u] = sim(v, u), computed (or, warm, gathered) once: the
	// search prices its arcs from it and the readback reads it again. The
	// flow and — unless a FlowState will own them — the rows are pooled;
	// every byte read by this solve is rewritten below, and nothing pooled
	// escapes into the returned result.
	scratch := acquireMcflowScratch(nv, nu)
	defer releaseMcflowScratch(scratch)
	rows := scratch.rows
	if wc != nil {
		rows = wc.table(nv * nu)
	}
	var warm *warmIndex
	if prev != nil {
		warm = newWarmIndex(prev, users, scratch.userCol)
	}
	for v := 0; v < nv; v++ {
		row := rows[v*nu : (v+1)*nu]
		if warm == nil || !warm.gatherRow(in, v, events[v], row) {
			in.similarityRow(v, row)
		}
	}

	// Pairs of similarity 0 get no arc: a unit on one would add nothing
	// to MaxSum = Δ − cost, so the relaxed optimum is the same without
	// them (DESIGN.md), and every unit of Δ lands on a positive pair.
	f := &scratch.flow
	if flip := nv > nu; flip {
		t := scratch.trows
		for i, sim := range rows {
			t[(i%nu)*nv+i/nu] = sim
		}
		f.reset(in, t, true)
	} else {
		f.reset(in, rows, false)
	}
	defer func() { observeFlowWork(f.work) }()
	if warm != nil {
		if err := warm.restore(ctx, f, events); err != nil {
			return nil, nil, err
		}
	} else {
		f.buildTables()
	}
	// Augment while a unit of flow still increases MaxSum = Δ − cost, i.e.
	// while the next path's per-unit cost is below 1. Each iteration is one
	// search that pushes one unit, so polling ctx here bounds the
	// cancellation latency by a single O(|V|²) search.
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if !f.augment() {
			break
		}
	}
	delta := f.total()
	mcflowDeltaUnits.Add(delta)
	res := &FlowResult{Relaxed: NewMatchingSized(nv, nu, int(delta)), Delta: delta}

	var st *FlowState
	if wc != nil {
		st = &FlowState{
			events: append([]int(nil), events...),
			users:  append([]int(nil), users...),
			rows:   rows,
			pot:    append([]float64(nil), f.pot...),
			flip:   f.flip,
		}
	}
	for i, sim := range rows {
		v, u := i/nu, i%nu
		if j, _, _ := f.pair(v, u); !f.on[j] {
			continue
		}
		res.Relaxed.Add(v, u, sim)
		if st != nil {
			st.pairs = append(st.pairs, [2]int{events[v], users[u]})
		}
	}
	res.RelaxedMaxSum = res.Relaxed.MaxSum()
	return res, st, nil
}

// resolveConflictsExact replaces the greedy selection with an exact
// per-user maximum-weight independent set, computed by enumerating subsets
// of the user's M∅ events (at most c_u of them, so 2^c_u states). Falls
// back to the greedy heuristic for pathological users with > 20 events.
func resolveConflictsExact(in *Instance, relaxed *Matching) *Matching {
	m := NewMatchingSized(in.NumEvents(), in.NumUsers(), relaxed.Size())
	var b resolveScratch
	for u := 0; u < in.NumUsers(); u++ {
		events := relaxed.UserEvents(u)
		if len(events) == 0 {
			continue
		}
		if len(events) > 20 {
			b.greedyIndependent(m, in, u, events)
			continue
		}
		bestMask, bestSum := 0, -1.0
		for mask := 0; mask < 1<<len(events); mask++ {
			sum := 0.0
			ok := true
			for i := 0; ok && i < len(events); i++ {
				if mask&(1<<i) == 0 {
					continue
				}
				for j := i + 1; j < len(events); j++ {
					if mask&(1<<j) != 0 && in.Conflicting(events[i], events[j]) {
						ok = false
						break
					}
				}
				sum += in.Similarity(events[i], u)
			}
			if ok && sum > bestSum {
				bestMask, bestSum = mask, sum
			}
		}
		for i, v := range events {
			if bestMask&(1<<i) != 0 {
				m.Add(v, u, in.Similarity(v, u))
			}
		}
	}
	return m
}

// resolveScratch is greedyIndependent's reusable storage: one conflict
// resolution lends the same buffers to every user.
type resolveScratch struct {
	events, kept []int
	sims         []float64
}

// greedyIndependent is the paper's per-user greedy selection: it adds to m
// each of user u's events, by similarity descending and then event id
// ascending, that conflicts with none kept before it. That order is a
// strict total order, so the insertion sort below puts the events where
// any sort would, reading each similarity once.
func (b *resolveScratch) greedyIndependent(m *Matching, in *Instance, u int, events []int) {
	evs, sims := b.events[:0], b.sims[:0]
	for _, v := range events {
		s := in.Similarity(v, u)
		i := len(evs)
		evs, sims = append(evs, v), append(sims, s)
		for ; i > 0 && (sims[i-1] < s || sims[i-1] == s && evs[i-1] > v); i-- {
			evs[i], sims[i] = evs[i-1], sims[i-1]
		}
		evs[i], sims[i] = v, s
	}
	kept := b.kept[:0]
	for i, v := range evs {
		if in.Conflicts != nil && in.Conflicts.ConflictsWithAny(v, kept) {
			continue
		}
		kept = append(kept, v)
		m.Add(v, u, sims[i])
	}
	b.events, b.sims, b.kept = evs, sims, kept
}

// resolveConflicts implements lines 8-14 of Algorithm 1: for each user,
// greedily keep the most interesting pairwise-non-conflicting subset of the
// events M∅ assigned to that user.
func resolveConflicts(in *Instance, relaxed *Matching) *Matching {
	m := NewMatchingSized(in.NumEvents(), in.NumUsers(), relaxed.Size())
	var b resolveScratch
	// Process users in ascending order for deterministic output.
	for u := 0; u < in.NumUsers(); u++ {
		if events := relaxed.UserEvents(u); len(events) > 0 {
			b.greedyIndependent(m, in, u, events)
		}
	}
	return m
}
