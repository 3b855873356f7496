package core

import (
	"context"
	"errors"
	"sort"

	"github.com/ebsnlab/geacc/internal/obs"
)

// ErrNodeLimit is returned when an exact search exceeds its node budget.
var ErrNodeLimit = errors.New("core: exact search exceeded node limit")

// SearchStats instruments an exact search run; Figure 6 of the paper plots
// exactly these quantities for Prune-GEACC versus unpruned exhaustive search.
type SearchStats struct {
	// Invocations counts calls of the Search recursion (Fig. 6d).
	Invocations int64
	// CompleteSearches counts recursions that reached the maximum depth and
	// produced a complete matching (Fig. 6c).
	CompleteSearches int64
	// Prunes counts bound-based cutoffs (zero for exhaustive search).
	Prunes int64
	// PrunedDepthSum accumulates the depth at which each prune fired;
	// PrunedDepthSum/Prunes is the averaged pruned depth of Fig. 6a.
	PrunedDepthSum int64
	// MaxDepth is the deepest possible recursion, |V|·|U| (the dashed lines
	// of Fig. 6a).
	MaxDepth int
}

// AvgPrunedDepth returns the mean recursion depth at which pruning fired,
// or 0 if no prune happened.
func (s SearchStats) AvgPrunedDepth() float64 {
	if s.Prunes == 0 {
		return 0
	}
	return float64(s.PrunedDepthSum) / float64(s.Prunes)
}

// ExactOptions configures the exact search.
type ExactOptions struct {
	// DisablePruning turns off the Lemma 6 bound, yielding the paper's
	// "exhaustive search without pruning" baseline (capacity and conflict
	// feasibility checks remain — they define the search tree itself).
	DisablePruning bool
	// DisableWarmStart skips seeding the best matching with Greedy-GEACC
	// (Algorithm 3 line 1 runs Greedy first; disable to measure its effect).
	DisableWarmStart bool
	// NodeLimit bounds Search invocations; 0 means unlimited. When the
	// limit trips, ErrNodeLimit is returned along with the best matching
	// found so far (no longer guaranteed optimal).
	NodeLimit int64
	// Ctx, when non-nil, cancels the search: it is checked on entry and
	// then every exactCtxStride node expansions. A canceled search returns
	// ctx's error (and, like every non-ErrNodeLimit error, a nil matching).
	Ctx context.Context
	// TightBound replaces the paper's per-event potential s_v·c_v (the 1-NN
	// similarity times the full capacity) with the sum of the event's c_v
	// largest similarities — still an upper bound on the event's possible
	// contribution (it ignores user capacities and conflicts, exactly like
	// the paper's bound), but never larger than s_v·c_v. The optimum is
	// unchanged. Because L is ordered by the potential, the flag also
	// changes the enumeration order: node counts usually drop sharply
	// (BenchmarkPruneBounds measures ~2× on aggregate, up to ~100× on
	// single instances) but can occasionally rise on unlucky orders.
	TightBound bool
}

// exactCtxStride is how many Search invocations run between cancellation
// polls of ExactOptions.Ctx.
const exactCtxStride = 4096

// ExactOpts runs Prune-GEACC (Algorithms 3 and 4 of the paper) with explicit
// options: branch-and-bound over the match/unmatch state of every pair, in
// the order of events sorted by s_v·c_v and, within an event, users by
// non-increasing similarity. The bound of Lemma 6 prunes subtrees that
// cannot beat the best matching found so far, which is seeded by
// Greedy-GEACC. The returned matching is optimal.
func ExactOpts(in *Instance, opt ExactOptions) (*Matching, SearchStats, error) {
	exactRuns.Inc()
	nv, nu := in.NumEvents(), in.NumUsers()
	if opt.Ctx != nil {
		if err := opt.Ctx.Err(); err != nil {
			return nil, SearchStats{MaxDepth: nv * nu}, err
		}
	}
	st := &searchState{
		in:    in,
		opt:   opt,
		stats: SearchStats{MaxDepth: nv * nu},
	}
	if nv == 0 || nu == 0 {
		return NewMatching(), st.stats, nil
	}
	rec := obs.RecorderFrom(opt.Ctx)
	sp := rec.Start("exact/prep")

	// Precompute the similarity matrix and, per event, users in
	// non-increasing similarity order (the event's NN list). The matrix is
	// carved out of one flat buffer.
	simFlat := make([]float64, nv*nu)
	st.simMat = make([][]float64, nv)
	st.nn = make([][]int, nv)
	for v := 0; v < nv; v++ {
		st.simMat[v] = simFlat[v*nu : (v+1)*nu : (v+1)*nu]
		in.similarityRow(v, st.simMat[v])
		order := make([]int, nu)
		for u := range order {
			order[u] = u
		}
		row := st.simMat[v]
		sort.Slice(order, func(i, j int) bool {
			if row[order[i]] != row[order[j]] {
				return row[order[i]] > row[order[j]]
			}
			return order[i] < order[j]
		})
		st.nn[v] = order
	}

	// L: events in non-increasing s_v·c_v order (Algorithm 3 line 5),
	// where s_v is the similarity to the event's first NN. With TightBound,
	// the per-event potential is the sum of its c_v best similarities
	// instead (≤ s_v·c_v, still an upper bound on its contribution).
	st.weight = make([]float64, nv)
	for v := 0; v < nv; v++ {
		if opt.TightBound {
			top := in.Events[v].Cap
			if top > nu {
				top = nu
			}
			for j := 0; j < top; j++ {
				st.weight[v] += st.simMat[v][st.nn[v][j]]
			}
		} else {
			st.weight[v] = st.simMat[v][st.nn[v][0]] * float64(in.Events[v].Cap)
		}
	}
	st.order = make([]int, nv)
	for v := range st.order {
		st.order[v] = v
	}
	sort.Slice(st.order, func(i, j int) bool {
		if st.weight[st.order[i]] != st.weight[st.order[j]] {
			return st.weight[st.order[i]] > st.weight[st.order[j]]
		}
		return st.order[i] < st.order[j]
	})

	// Algorithm 3 line 6: sum_remain over L[1:].
	for i := 1; i < nv; i++ {
		st.sumRemain += st.weight[st.order[i]]
	}

	st.capV = make([]int, nv)
	st.capU = make([]int, nu)
	for v, e := range in.Events {
		st.capV[v] = e.Cap
	}
	for u, usr := range in.Users {
		st.capU[u] = usr.Cap
	}
	st.userEvents = make([][]int, nu)
	sp.End()

	// Algorithm 3 line 1: seed the best matching with Greedy-GEACC so the
	// bound prunes from the very beginning.
	if opt.DisableWarmStart {
		st.best = NewMatching()
		st.bestSum = -1 // any matching (even empty) improves on this
	} else {
		sp = rec.Start("exact/warmstart")
		st.best = Greedy(in)
		st.bestSum = st.best.MaxSum()
		sp.Annotate("seed_max_sum", st.bestSum).End()
	}

	sp = rec.Start("exact/search")
	err := st.search(0, 1)
	sp.Annotate("nodes", st.stats.Invocations).
		Annotate("prunes", st.stats.Prunes).
		Annotate("complete", st.stats.CompleteSearches).End()
	exactNodes.Add(st.stats.Invocations)
	exactPrunes.Add(st.stats.Prunes)
	exactComplete.Add(st.stats.CompleteSearches)
	if err != nil && !errors.Is(err, ErrNodeLimit) {
		return nil, st.stats, err
	}
	return st.best, st.stats, err
}

type searchState struct {
	in    *Instance
	opt   ExactOptions
	stats SearchStats

	simMat [][]float64
	nn     [][]int   // nn[v][j] = the (j+1)-th NN of event v
	weight []float64 // s_v · c_v
	order  []int     // L: event ids in non-increasing weight order

	capV, capU []int
	userEvents [][]int // current partial matching, per user
	current    []Assignment
	currentSum float64
	sumRemain  float64

	best    *Matching
	bestSum float64
}

// depth is the enumeration position of pair (vIdx, uRank): the paper's
// recursion depth, in [1, |V|·|U|].
func (st *searchState) depth(vIdx, uRank int) int64 {
	return int64(vIdx)*int64(st.in.NumUsers()) + int64(uRank)
}

// search enumerates the matched and unmatched states of the pair formed by
// the vIdx-th event of L and its uRank-th NN (Algorithm 4; vIdx is 0-based
// here, uRank 1-based as in the paper).
func (st *searchState) search(vIdx, uRank int) error {
	st.stats.Invocations++
	if st.opt.NodeLimit > 0 && st.stats.Invocations > st.opt.NodeLimit {
		return ErrNodeLimit
	}
	if st.opt.Ctx != nil && st.stats.Invocations%exactCtxStride == 0 {
		if err := st.opt.Ctx.Err(); err != nil {
			return err
		}
	}
	v := st.order[vIdx]
	u := st.nn[v][uRank-1]
	s := st.simMat[v][u]

	// Matched state (lines 3-19). A pair is assignable when both sides have
	// remaining capacity, the similarity is positive (Definition 5), and v
	// does not conflict with u's currently matched events.
	if st.capV[v] > 0 && st.capU[u] > 0 && s > 0 && !st.conflicts(v, u) {
		st.capV[v]--
		st.capU[u]--
		st.userEvents[u] = append(st.userEvents[u], v)
		st.current = append(st.current, Assignment{V: v, U: u, Sim: s})
		st.currentSum += s

		if err := st.continueFrom(vIdx, uRank); err != nil {
			return err
		}

		st.currentSum -= s
		st.current = st.current[:len(st.current)-1]
		st.userEvents[u] = st.userEvents[u][:len(st.userEvents[u])-1]
		st.capU[u]++
		st.capV[v]++
	}

	// Unmatched state (line 20).
	return st.continueFrom(vIdx, uRank)
}

// continueFrom advances the enumeration past pair (vIdx, uRank), applying
// the Lemma 6 bound before each descent (Algorithm 4 lines 6-17).
func (st *searchState) continueFrom(vIdx, uRank int) error {
	nv, nu := st.in.NumEvents(), st.in.NumUsers()
	v := st.order[vIdx]
	if uRank == nu || st.capV[v] == 0 {
		// Move to the next event in L.
		if vIdx == nv-1 {
			st.stats.CompleteSearches++
			if st.currentSum > st.bestSum {
				st.snapshotBest()
			}
			return nil
		}
		if !st.opt.DisablePruning && st.currentSum+st.sumRemain <= st.bestSum {
			st.stats.Prunes++
			st.stats.PrunedDepthSum += st.depth(vIdx+1, 1)
			return nil
		}
		next := st.order[vIdx+1]
		st.sumRemain -= st.weight[next]
		err := st.search(vIdx+1, 1)
		st.sumRemain += st.weight[next]
		return err
	}
	// Move to the event's next NN.
	uNext := st.nn[v][uRank]
	bound := st.currentSum + st.sumRemain + st.simMat[v][uNext]*float64(st.capV[v])
	if !st.opt.DisablePruning && bound <= st.bestSum {
		st.stats.Prunes++
		st.stats.PrunedDepthSum += st.depth(vIdx, uRank+1)
		return nil
	}
	return st.search(vIdx, uRank+1)
}

func (st *searchState) conflicts(v, u int) bool {
	if st.in.Conflicts == nil {
		return false
	}
	return st.in.Conflicts.ConflictsWithAny(v, st.userEvents[u])
}

func (st *searchState) snapshotBest() {
	st.best.Reset()
	for _, p := range st.current {
		st.best.Add(p.V, p.U, p.Sim)
	}
	st.bestSum = st.best.MaxSum()
}
