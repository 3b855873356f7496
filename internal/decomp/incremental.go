package decomp

import (
	"context"
	"time"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/obs"
)

// Incremental-rebalance observability: the dirty-component histogram feeds
// the "how local are deltas really?" dashboard panel the service docs
// describe. Catalog entries live in docs/OBSERVABILITY.md.
var (
	rebalanceDirtyComponents = obs.Default().Histogram("geacc_rebalance_dirty_components", obs.DefaultSizeBuckets)
	rebalanceGain            = obs.Default().FloatGauge("geacc_rebalance_last_gain")
)

// DirtyComponents maps parent node ids back to the components containing
// them: the ids of every component holding any of the given parent event or
// user indices, ascending and deduplicated. Nodes outside every component
// (stranded events/users, out-of-range ids) are ignored — they cannot
// appear in any feasible matching, so no component needs re-solving on
// their account.
func (d *Decomposition) DirtyComponents(events, users []int) []int {
	dirty := make([]bool, len(d.Components))
	mark := func(nodes, comp []int) {
		for _, x := range nodes {
			if x >= 0 && x < len(comp) && comp[x] >= 0 {
				dirty[comp[x]] = true
			}
		}
	}
	mark(events, d.eventComp)
	mark(users, d.userComp)
	ids := []int{}
	for i, ok := range dirty {
		if ok {
			ids = append(ids, i)
		}
	}
	return ids
}

// KeptBound sums the kept Corollary 1 bounds of d's components in
// component order (core.Arranger.KeptBound): an upper bound on the
// conflict-free relaxed optimum of arr, exact up to rounding when updates
// is 0. d must come from KeptComponents(arr), with no operation since.
func (d *Decomposition) KeptBound(arr *core.Arranger) (bound float64, updates int) {
	for _, c := range d.Components {
		b, n := arr.KeptBound(c.Events[0])
		bound += b
		updates += n
	}
	return bound, updates
}

// RebalanceResult reports one scoped arranger rebalance.
type RebalanceResult struct {
	// Gain is the MaxSum improvement actually adopted (0 when every
	// re-solved component was already at least as good incrementally).
	Gain float64 `json:"gain"`
	// ComponentsSolved is how many decomposition components were
	// re-solved; ComponentsTotal is how many the instance decomposes into.
	ComponentsSolved int `json:"components_solved"`
	ComponentsTotal  int `json:"components_total"`
	// Adopted reports whether the arranger's matching was replaced.
	Adopted bool `json:"adopted"`
	// Partition aggregates the approximate-sharding activity of this
	// rebalance (nil unless Options.Shard routed a dirty giant component
	// through internal/partition).
	Partition *core.PartitionStats `json:"partition,omitempty"`
	// Replaced is the arrangement an adopted rebalance replaced (nil when
	// nothing was adopted): the restore point if recording the outcome
	// fails. The arranger no longer references it.
	Replaced *core.Matching `json:"-"`
}

// RebalanceScoped re-solves only the decomposition components touched by
// the given dirty parent node ids and adopts each component's fresh
// matching when it beats the component's share of the current arrangement.
// Passing full re-solves every component (the classic Rebalance, but
// through the parallel decomposition pool).
//
// This is the service's incremental path: a delta stream marks the nodes
// it touched, and the periodic rebalance pays for exactly the components
// those deltas live in. Clean components keep their current pairs
// untouched — bit-for-bit, in the current matching's order — so a
// rebalance whose deltas are local to one community never perturbs the
// others. The winners splice in through the merge SolveContext uses.
//
// The components come from the arranger's kept union graph
// (KeptComponents), extended by the nodes added since the last read, so
// structural changes — a new user bridging two previously independent
// components — are always seen without rescanning every similarity. Only
// the components to solve are materialized, from the arranger's own
// instance (core.Arranger.Instance): no snapshot, no whole-instance
// kernels.
// Every component whose solve computed its relaxed optimum (an unsharded
// min-cost flow, warm or cold) stores it as the component's kept bound
// (core.Arranger.SetKeptBound), adopted or not.
func RebalanceScoped(ctx context.Context, arr *core.Arranger, algo string,
	dirtyEvents, dirtyUsers []int, full bool, opt Options) (RebalanceResult, error) {
	res := RebalanceResult{}
	sp := obs.StartSpan(ctx, "instance/rebalance").Annotate("algo", algo)
	defer sp.End()

	start := time.Now()
	bsp := obs.RecorderFrom(ctx).Start("decomp/build")
	d, err := KeptComponents(ctx, arr)
	if err != nil {
		bsp.Annotate("error", err.Error()).End()
		return res, err
	}
	res.ComponentsTotal = len(d.Components)
	ids := d.allIDs()
	if !full {
		ids = d.DirtyComponents(dirtyEvents, dirtyUsers)
	}
	if err := d.materialize(arr.Instance(), ids); err != nil {
		bsp.Annotate("error", err.Error()).End()
		return res, err
	}
	d.observeBuild(bsp, start)

	rebalanceDirtyComponents.Observe(float64(len(ids)))
	sp.Annotate("components_total", res.ComponentsTotal).
		Annotate("components_dirty", len(ids)).
		Annotate("full", full)
	if len(ids) == 0 {
		return res, nil
	}
	if _, err := exactGate(algo, d.MaxComponentArea(ids), MaxExactArea, true); err != nil {
		err.(*ExactGateError).Rebalance = true // exactGate's only error type
		return res, err
	}

	// A tripped node budget refuses the rebalance like any solver error:
	// nothing is adopted from a best-so-far search.
	st, err := d.solveStep(ctx, algo, ids, opt)
	if err == nil {
		err = st.budgetErr
	}
	if err != nil {
		return res, err
	}
	res.ComponentsSolved = len(ids)
	res.Partition = st.partition
	// Each flow solve computed its component's exact relaxed optimum on
	// the way: the kept bound the stats read.
	for id, b := range st.bounds {
		arr.SetKeptBound(d.Components[id].Events[0], b)
	}

	// Current per-component MaxSum: every matched pair has sim > 0, so its
	// event and user share a component and the pair belongs to exactly one.
	cur := arr.Pairs()
	curSum := make([]float64, len(d.Components))
	for _, p := range cur {
		curSum[d.eventComp[p.V]] += p.Sim
	}

	// Adopt each re-solved component whose fresh solve is strictly better;
	// the others keep their current pairs.
	for _, id := range ids {
		if g := st.ms[id].MaxSum() - curSum[id]; g > 0 {
			res.Gain += g
		} else {
			st.ms[id] = nil
		}
	}
	rebalanceGain.Set(res.Gain)
	sp.Annotate("gain", res.Gain)
	if res.Gain == 0 {
		return res, nil
	}
	if res.Replaced, err = arr.SetMatching(d.merge(cur, st.ms)); err != nil {
		return res, err
	}
	res.Adopted = true
	return res, nil
}
