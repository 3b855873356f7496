package core

import (
	"context"

	"github.com/ebsnlab/geacc/internal/obs"
)

// GreedyOptions tunes Greedy-GEACC. The zero value runs the plain
// algorithm.
type GreedyOptions struct {
	// Trace, when non-nil, receives one step per pair the sweep reaches
	// while both its endpoints have capacity, in (sim desc, v asc, u asc)
	// order: every accept, and every pair refused for a conflict or by
	// Feasible. It is the decision log of the run, the narrative of the
	// paper's Example 3; tracing does not change the matching.
	Trace func(TraceStep)
	// Feasible, when non-nil, adds a side constraint: a pair is only
	// assignable while Feasible(v, u) holds. The predicate MUST be monotone
	// non-increasing over the run (once false for a pair, false forever),
	// because the algorithm prunes failing pairs permanently. Budgeted
	// arrangements (BudgetedGreedy) are built on this hook.
	Feasible func(v, u int) bool
	// Ctx, when non-nil, is polled every greedyInitPollPairs scored pairs
	// and every greedyCtxStride pairs the decision loop visits; on
	// cancellation the run stops early and returns the partial matching
	// built so far. Callers that need cancellation surfaced as an error
	// should use GreedyCtx, which discards the partial result.
	Ctx context.Context
	// onAccept, when non-nil, sees each accepted pair before the next
	// Feasible call: the budget's spending (Budget.greedyOptions).
	onAccept func(v, u int)
}

// greedyCtxStride is how many pairs the sweep's decision loop visits
// between cancellation polls — frequent enough to abandon a multi-second
// run promptly, rare enough to keep the poll off the per-pair profile.
const greedyCtxStride = 1024

// TraceStep records one pair the sweep reached and its decision on it.
type TraceStep struct {
	V, U     int
	Sim      float64
	Accepted bool
	// Reason explains a rejection: "conflict" when the pair conflicts with
	// one of u's matched events or Feasible refuses it. Empty for accepted
	// pairs.
	Reason string
}

// Greedy runs Greedy-GEACC (Algorithm 2 of the paper) with default options:
// it repeatedly adds the most similar feasible unvisited pair to the
// matching. The result is feasible and within 1/(1+max c_u) of the optimum
// (Theorem 3).
func Greedy(in *Instance) *Matching {
	return GreedyOpts(in, GreedyOptions{})
}

// GreedyCtx runs Greedy-GEACC under a context: on cancellation the run
// aborts at the next poll and returns ctx's error with a nil matching.
func GreedyCtx(ctx context.Context, in *Instance, opt GreedyOptions) (*Matching, error) {
	opt.Ctx = ctx
	m := GreedyOpts(in, opt)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// GreedyOpts runs Greedy-GEACC with explicit options, as a sorted sweep
// over the live pairs in the order the paper's heap H pops them (DESIGN.md,
// "One sorted sweep"): in one pass up to greedySweepMaxPairs live pairs
// (sweepTable), in bands beyond (sweepBands).
func GreedyOpts(in *Instance, opt GreedyOptions) *Matching {
	greedyRuns.Inc()
	nv, nu := in.NumEvents(), in.NumUsers()
	if nv == 0 || nu == 0 {
		return NewMatching()
	}
	// Phase spans land in the recorder traveling on opt.Ctx, if any; the
	// nil path costs one pointer check.
	rec := obs.RecorderFrom(opt.Ctx)
	sp := rec.Start("greedy/init")

	// The capacity arrays and the sweep's buffers are pooled per solve;
	// every entry is rewritten before use.
	scratch := acquireGreedyScratch(nv, nu)
	defer releaseGreedyScratch(scratch)
	s := sweeper{in: in, opt: opt, capV: scratch.capV, capU: scratch.capU}
	var sumV, sumU int
	for v, e := range in.Events {
		s.capV[v] = e.Cap
		sumV += e.Cap
		if e.Cap > 0 {
			s.liveV++
		}
	}
	for u, usr := range in.Users {
		s.capU[u] = usr.Cap
		sumU += usr.Cap
		if usr.Cap > 0 {
			s.liveU++
		}
	}
	// No arrangement holds more pairs than either side has seats.
	s.m = NewMatchingSized(nv, nu, min(sumV, sumU))
	if s.liveV*nu <= greedySweepMaxPairs {
		s.sweepTable(scratch, rec, sp)
	} else {
		s.sweepBands(scratch, rec, sp)
	}
	greedyPops.Add(s.examined)
	greedyAccepted.Add(s.accepted)
	greedyRejected.Add(s.examined - s.accepted)
	return s.m
}

// conflictsWithMatched reports whether assigning v to u would put u in two
// conflicting events of m. Monotone: once true it stays true, so a pair
// filtered here can be skipped permanently.
func conflictsWithMatched(in *Instance, m *Matching, v, u int) bool {
	return in.Conflicts != nil && in.Conflicts.ConflictsWithAny(v, m.UserEvents(u))
}
