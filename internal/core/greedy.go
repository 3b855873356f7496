package core

import (
	"context"

	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/pqueue"
)

// GreedyOptions tunes Greedy-GEACC. The zero value selects the defaults
// (the Chunked index).
type GreedyOptions struct {
	// Index selects the nearest-neighbor index serving the "next feasible
	// unvisited NN" queries.
	Index IndexKind
	// Trace, when non-nil, receives every heap pop in order — the decision
	// log of the run, exactly the narrative of the paper's Example 3. A
	// traced run keeps the heap loop, so its log is the paper's.
	Trace func(TraceStep)
	// Feasible, when non-nil, adds a side constraint: a pair is only
	// assignable while Feasible(v, u) holds. The predicate MUST be monotone
	// non-increasing over the run (once false for a pair, false forever),
	// because the algorithm prunes failing pairs permanently. Budgeted
	// arrangements (BudgetedGreedy) are built on this hook.
	Feasible func(v, u int) bool
	// Ctx, when non-nil, is polled every greedyCtxStride decided pairs; on
	// cancellation the run stops early and returns the partial matching
	// built so far. Callers that need cancellation surfaced as an error
	// should use GreedyCtx, which discards the partial result.
	Ctx context.Context
}

// greedyCtxStride is how many pairs Greedy decides (heap pops, or pairs
// the sweep examines) between cancellation polls — frequent enough to
// abandon a multi-second run promptly, rare enough to keep the poll off
// the per-pair profile.
const greedyCtxStride = 1024

// TraceStep records one popped pair and the algorithm's decision on it.
type TraceStep struct {
	V, U     int
	Sim      float64
	Accepted bool
	// Reason explains a rejection: "event-full", "user-full", or
	// "conflict". Empty for accepted pairs. When several reasons apply
	// simultaneously they are reported in that priority order.
	Reason string
}

// Greedy runs Greedy-GEACC (Algorithm 2 of the paper) with default options:
// it repeatedly adds the most similar feasible unvisited pair to the
// matching, maintaining a heap H of per-node nearest-neighbor candidates.
// The result is feasible and within 1/(1+max c_u) of the optimum (Theorem 3).
func Greedy(in *Instance) *Matching {
	return GreedyOpts(in, GreedyOptions{})
}

// GreedyCtx runs Greedy-GEACC under a context: on cancellation the run
// aborts at the next poll (every greedyCtxStride decided pairs) and returns
// ctx's error with a nil matching.
func GreedyCtx(ctx context.Context, in *Instance, opt GreedyOptions) (*Matching, error) {
	opt.Ctx = ctx
	m := GreedyOpts(in, opt)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// GreedyOpts runs Greedy-GEACC with explicit options. The default solve
// (no Trace hook, the default index, at most greedySweepMaxPairs live
// pairs) runs Algorithm 2 as one sorted sweep (sweepGreedy); every other
// run keeps the paper's heap loop (heapGreedy). Both accept the same pairs
// in the same order with the same similarity bits (DESIGN.md, "One sorted
// sweep").
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

	// The capacity arrays and each loop's working set are pooled per
	// solve; every entry is rewritten before use.
	scratch := acquireGreedyScratch(nv, nu)
	defer releaseGreedyScratch(scratch)
	capV, capU := scratch.capV, scratch.capU
	var sumV, sumU, liveV int
	for v, e := range in.Events {
		capV[v] = e.Cap
		sumV += e.Cap
		if e.Cap > 0 {
			liveV++
		}
	}
	for u, usr := range in.Users {
		capU[u] = usr.Cap
		sumU += usr.Cap
	}
	// No arrangement holds more pairs than either side has seats.
	m := NewMatchingSized(nv, nu, min(sumV, sumU))
	var pops, accepted int64
	if opt.Trace == nil && opt.Index == IndexChunked && liveV*nu <= greedySweepMaxPairs {
		pops, accepted = sweepGreedy(in, opt, scratch, m, rec, sp)
	} else {
		pops, accepted = heapGreedy(in, opt, scratch, m, rec, sp)
	}
	greedyPops.Add(pops)
	greedyAccepted.Add(accepted)
	greedyRejected.Add(pops - accepted)
	return m
}

// conflictsWithMatched reports whether assigning v to u would put u in two
// conflicting events of m. Monotone: once true it stays true, so a pair
// filtered here can be skipped permanently.
func conflictsWithMatched(in *Instance, m *Matching, v, u int) bool {
	return in.Conflicts != nil && in.Conflicts.ConflictsWithAny(v, m.UserEvents(u))
}

// heapGreedy is Algorithm 2 as the paper states it: a heap H of per-node
// nearest-neighbor candidates, popped in (sim desc, v asc, u asc) order.
// It ends the init span sp, runs its scan under a "greedy/scan" span and
// returns the pops and accepted pairs. On cancellation it stops early and
// leaves m partial.
func heapGreedy(in *Instance, opt GreedyOptions, scratch *greedyScratch, m *Matching, rec *obs.Recorder, sp *obs.Span) (pops, accepted int64) {
	nv, nu := in.NumEvents(), in.NumUsers()
	capV, capU := scratch.capV, scratch.capU
	scratch.prepareHeap(nv, nu)
	// Capacities only fall, so a full node stays full: the index drops it
	// from refills, omitting only candidates the advance loops would skip.
	scratch.liveV.Reset(nv, func(v int) bool { return capV[v] > 0 })
	scratch.liveU.Reset(nu, func(u int) bool { return capU[u] > 0 })
	src := newNeighborSource(in, opt.Index, &scratch.liveV, &scratch.liveU)

	// Per-node neighbor streams. The default index primes every live node's
	// stream here, scoring each live pair once for both sides; the others
	// create streams lazily, so a node whose pairs are all pushed from the
	// other side never materializes its own stream.
	vStreams, uStreams := scratch.vStreams, scratch.uStreams
	if vs, ok := src.(*vectorSource); ok {
		ctx := opt.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		if err := vs.prime(ctx, vStreams, uStreams); err != nil {
			sp.End()
			return 0, 0
		}
	}
	h := scratch.heap

	// blocked folds in the optional monotone side constraint.
	blocked := func(v, u int) bool {
		if conflictsWithMatched(in, m, v, u) {
			return true
		}
		return opt.Feasible != nil && !opt.Feasible(v, u)
	}

	// advanceEvent pushes event v's next feasible unvisited NN into H
	// (Algorithm 2 lines 16-19). Skipped candidates are infeasible forever
	// (their capacity or conflict state never recovers) or already in H.
	advanceEvent := func(v int) {
		if capV[v] == 0 {
			return
		}
		if vStreams[v] == nil {
			vStreams[v] = src.eventStream(v)
		}
		for {
			u, s, ok := vStreams[v].Next()
			if !ok {
				return // v is a finished node
			}
			if h.Contains(v, u) || capU[u] == 0 || blocked(v, u) {
				continue
			}
			h.Push(pqueue.Pair{V: v, U: u, Sim: s})
			return
		}
	}

	// advanceUser is the symmetric step for user u (lines 20-23).
	advanceUser := func(u int) {
		if capU[u] == 0 {
			return
		}
		if uStreams[u] == nil {
			uStreams[u] = src.userStream(u)
		}
		for {
			v, s, ok := uStreams[u].Next()
			if !ok {
				return // u is a finished node
			}
			if h.Contains(v, u) || capV[v] == 0 || blocked(v, u) {
				continue
			}
			h.Push(pqueue.Pair{V: v, U: u, Sim: s})
			return
		}
	}

	// Initialization (lines 1-9): each node contributes its first NN.
	for v := 0; v < nv; v++ {
		advanceEvent(v)
	}
	for u := 0; u < nu; u++ {
		advanceUser(u)
	}
	sp.End()

	// Iteration (lines 11-23): pop the most similar pair, add it when
	// feasible, then let both endpoints contribute their next candidates.
	sp = rec.Start("greedy/scan")
	for h.Len() > 0 {
		if opt.Ctx != nil && pops%greedyCtxStride == 0 && opt.Ctx.Err() != nil {
			break
		}
		pops++
		p := h.Pop()
		ok := capV[p.V] > 0 && capU[p.U] > 0 && !blocked(p.V, p.U)
		if ok {
			m.Add(p.V, p.U, p.Sim)
			capV[p.V]--
			capU[p.U]--
			accepted++
		}
		if opt.Trace != nil {
			step := TraceStep{V: p.V, U: p.U, Sim: p.Sim, Accepted: ok}
			if !ok {
				switch {
				case capV[p.V] == 0:
					step.Reason = "event-full"
				case capU[p.U] == 0:
					step.Reason = "user-full"
				default:
					step.Reason = "conflict"
				}
			}
			opt.Trace(step)
		}
		advanceEvent(p.V)
		advanceUser(p.U)
	}
	sp.Annotate("pops", pops).Annotate("accepted", accepted).End()
	return pops, accepted
}
