package decomp

import (
	"context"
	"sort"

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
	nv, nu := d.Parent.NumEvents(), d.Parent.NumUsers()
	compOfEvent := make(map[int]int)
	compOfUser := make(map[int]int)
	for i, c := range d.Components {
		for _, v := range c.Events {
			compOfEvent[v] = i
		}
		for _, u := range c.Users {
			compOfUser[u] = i
		}
	}
	dirty := make(map[int]bool)
	for _, v := range events {
		if v < 0 || v >= nv {
			continue
		}
		if i, ok := compOfEvent[v]; ok {
			dirty[i] = true
		}
	}
	for _, u := range users {
		if u < 0 || u >= nu {
			continue
		}
		if i, ok := compOfUser[u]; ok {
			dirty[i] = true
		}
	}
	ids := make([]int, 0, len(dirty))
	for i := range dirty {
		ids = append(ids, i)
	}
	sort.Ints(ids)
	return ids
}

// RebalanceResult reports one scoped arranger rebalance.
type RebalanceResult struct {
	// Gain is the MaxSum improvement actually adopted (0 when every
	// re-solved component was already at least as good incrementally).
	Gain float64 `json:"gain"`
	// ComponentsSolved is how many decomposition components were
	// re-solved; ComponentsTotal is how many the snapshot decomposes into.
	ComponentsSolved int `json:"components_solved"`
	ComponentsTotal  int `json:"components_total"`
	// Adopted reports whether the arranger's matching was replaced.
	Adopted bool `json:"adopted"`
	// Partition aggregates the approximate-sharding activity of this
	// rebalance (nil unless Options.Shard routed a dirty giant component
	// through internal/partition).
	Partition *core.PartitionStats `json:"partition,omitempty"`
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
// others.
//
// The decomposition is rebuilt from the arranger's current snapshot (cheap
// next to solving: one kernel row scan per event plus a union-find), so
// structural changes — a new user bridging two previously independent
// components — are always seen.
func RebalanceScoped(ctx context.Context, arr *core.Arranger, algo string,
	dirtyEvents, dirtyUsers []int, full bool, opt Options) (RebalanceResult, error) {
	res := RebalanceResult{}
	sp := obs.StartSpan(ctx, "instance/rebalance").Annotate("algo", algo)
	defer sp.End()

	in, cur, err := arr.Snapshot()
	if err != nil {
		return res, err
	}
	d, err := DecomposeContext(ctx, in)
	if err != nil {
		return res, err
	}
	res.ComponentsTotal = len(d.Components)

	var ids []int
	if full {
		ids = make([]int, len(d.Components))
		for i := range ids {
			ids[i] = i
		}
	} else {
		ids = d.DirtyComponents(dirtyEvents, dirtyUsers)
	}
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

	fresh, err := d.SolveSubset(ctx, algo, ids, opt)
	if err != nil {
		return res, err
	}
	res.ComponentsSolved = len(ids)
	res.Partition = d.PartitionStats()

	// Current per-component MaxSum: every matched pair has sim > 0, so its
	// event and user share a component and the pair belongs to exactly one.
	compOfEvent := make(map[int]int)
	for i, c := range d.Components {
		for _, v := range c.Events {
			compOfEvent[v] = i
		}
	}
	curSum := make([]float64, len(d.Components))
	for _, p := range cur.Pairs() {
		curSum[compOfEvent[p.V]] += p.Sim
	}

	// Decide per dirty component whether the fresh solve wins.
	adopt := make(map[int]bool, len(ids))
	for _, id := range ids {
		m := fresh[id]
		if m == nil {
			continue
		}
		if g := m.MaxSum() - curSum[id]; g > 0 {
			adopt[id] = true
			res.Gain += g
		}
	}
	rebalanceGain.Set(res.Gain)
	sp.Annotate("gain", res.Gain)
	if len(adopt) == 0 {
		return res, nil
	}

	// Build the candidate deterministically: retained pairs first, in the
	// current matching's insertion order, then adopted components ascending
	// with their sub-matchings' own pair order mapped to parent indices.
	candidate := core.NewMatching()
	for _, p := range cur.Pairs() {
		if !adopt[compOfEvent[p.V]] {
			candidate.Add(p.V, p.U, p.Sim)
		}
	}
	adoptedIDs := make([]int, 0, len(adopt))
	for id := range adopt {
		adoptedIDs = append(adoptedIDs, id)
	}
	sort.Ints(adoptedIDs)
	for _, id := range adoptedIDs {
		c := d.Components[id]
		for _, p := range fresh[id].Pairs() {
			candidate.Add(c.Events[p.V], c.Users[p.U], p.Sim)
		}
	}
	if err := arr.SetMatching(candidate); err != nil {
		return res, err
	}
	res.Adopted = true
	return res, nil
}
