// Package decomp shards a GEACC instance along the connected components of
// its conflict/similarity union graph and solves the shards in parallel.
//
// Production-scale instances are sparse: most (event, user) pairs have
// sim = 0 and conflicts cluster into small groups, so the undirected union
// graph over V ∪ U — an edge v–u whenever sim(v, u) > 0, an edge v–v'
// whenever (v, v') ∈ CF — splits into many independent components. No
// matching may use a zero-similarity pair (Definition 5) and no constraint
// couples events of different components, so GEACC decomposes exactly:
//
//   - Prune-GEACC per component, merged, is globally optimal (the whole
//     instance's optimum is the sum of the component optima).
//   - Greedy-GEACC and MinCostFlow-GEACC keep their paper approximation
//     ratios: the ratios hold per component and both the achieved MaxSum
//     and the optimum are sums over components.
//
// DecomposeContext builds the components once (one kernel-batched
// similarity row scan per event plus a union-find); Decomposition.SolveContext
// then runs any registered solver over the components in a bounded worker
// pool with context cancellation and merges the per-component matchings
// deterministically — the result is independent of the worker count. A
// scoped rebalance reads a live arranger's kept union graph instead of
// scanning (KeptComponents), materializes only the components its deltas
// touched, runs the same solve step over them and merges the winners into
// the current matching. Both materialize from a core.Instance — the static
// one, or the arranger's own (core.Arranger.Instance) — through
// core.Instance.Sub, the one sub-instance builder.
package decomp

import (
	"context"
	"fmt"
	"time"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/obs"
)

// Component is one shard: a sub-instance over a connected component of the
// union graph, plus the mapping back to the parent's indices.
type Component struct {
	// Events and Users hold the parent indices of the component's nodes in
	// ascending order; sub-instance index i corresponds to Events[i]
	// (resp. Users[i]).
	Events []int
	Users  []int
	// Sub is the materialized sub-instance. Its similarity values are
	// bit-identical to the parent's (the kernels reproduce the similarity
	// closures exactly, and matrix entries are copied), so merged matchings
	// validate against the parent. It is nil for a component a kept
	// decomposition did not materialize.
	Sub *core.Instance
}

// Decomposition is the sharding of one instance. Components with no
// possible pair — an isolated event, or a user with zero similarity to
// every event — are not materialized; they are counted as stranded.
type Decomposition struct {
	// Parent is the decomposed instance (nil for KeptComponents).
	Parent     *core.Instance
	Components []Component

	// StrandedEvents / StrandedUsers count the nodes whose component has
	// no counterpart side: they cannot appear in any feasible matching.
	StrandedEvents int
	StrandedUsers  int

	// BuildSeconds is the wall-clock cost of finding the components (the
	// union-graph scan, or the kept graph's extension) and materializing
	// them.
	BuildSeconds float64

	// eventComp and userComp hold, for each parent event and user, the id
	// of its component, or -1 when the node is stranded: the one index from
	// parent nodes to components (DirtyComponents, rebalance, merge).
	eventComp, userComp []int
}

// DecomposeContext shards in along the connected components of its union
// graph. A recorder traveling on ctx receives one decomp/build span, and
// ctx is checked between event rows so a canceled caller does not pay for
// a full |V|·|U| scan.
func DecomposeContext(ctx context.Context, in *core.Instance) (*Decomposition, error) {
	start := time.Now()
	sp := obs.RecorderFrom(ctx).Start("decomp/build")
	nv, nu := in.NumEvents(), in.NumUsers()

	// Union-find over V ∪ U: node v in [0, nv), node nv+u for user u.
	uf := core.NewUnionFind(nv + nu)
	row := make([]float64, nu)
	for v := 0; v < nv; v++ {
		if v%64 == 0 && ctx.Err() != nil {
			sp.Annotate("error", ctx.Err().Error()).End()
			return nil, ctx.Err()
		}
		in.SimilarityRow(v, row)
		for u, s := range row {
			if s > 0 {
				uf.Union(v, nv+u)
			}
		}
	}
	if in.Conflicts != nil {
		// CF edges keep conflicting events in one shard. (Events in
		// different positive-similarity components share no assignable
		// user, so their conflicts could never bind — but folding CF into
		// the union graph makes the independence argument unconditional.)
		for v := 0; v < nv; v++ {
			for _, w := range in.Conflicts.Neighbors(v) {
				if v < w {
					uf.Union(v, w)
				}
			}
		}
	}
	eventRoot, userRoot := make([]int, nv), make([]int, nu)
	for v := range eventRoot {
		eventRoot[v] = uf.Find(v)
	}
	for u := range userRoot {
		userRoot[u] = uf.Find(nv + u)
	}

	d := numbered(eventRoot, userRoot)
	d.Parent = in
	if err := d.materialize(in, d.allIDs()); err != nil {
		sp.Annotate("error", err.Error()).End()
		return nil, err
	}
	d.observeBuild(sp, start)
	return d, nil
}

// KeptComponents numbers the components of arr's kept union graph
// (core.Arranger.UnionRoots) exactly as DecomposeContext numbers those of
// arr's snapshot — same ids, members and stranded counts — without any
// similarity work beyond the nodes added since the last call, and without
// materializing a component: every Sub is nil. The caller holds arr
// exclusively. The graph only grows, so the kept graph is the snapshot's
// (DESIGN.md, "Kept components").
func KeptComponents(ctx context.Context, arr *core.Arranger) (*Decomposition, error) {
	eventRoot, userRoot, err := arr.UnionRoots(ctx)
	if err != nil {
		return nil, err
	}
	return numbered(eventRoot, userRoot), nil
}

// numbered groups nodes by root label (labels in [0, |V|+|U|)), numbering
// components in first-appearance order over node ids — events, then users
// — so downstream seeds, warm-cache keys and merge order are stable across
// runs, worker counts and the two ways of finding the roots. Components
// with no counterpart side are stranded: id -1, counted, not listed.
func numbered(eventRoot, userRoot []int) *Decomposition {
	nv, nu := len(eventRoot), len(userRoot)
	group := make([]int, nv+nu) // root label -> group index + 1
	var groups []Component
	add := func(root int) *Component {
		if group[root] == 0 {
			groups = append(groups, Component{})
			group[root] = len(groups)
		}
		return &groups[group[root]-1]
	}
	for v, r := range eventRoot {
		g := add(r)
		g.Events = append(g.Events, v)
	}
	for u, r := range userRoot {
		g := add(r)
		g.Users = append(g.Users, u)
	}

	d := &Decomposition{eventComp: make([]int, nv), userComp: make([]int, nu)}
	for _, g := range groups {
		id := len(d.Components)
		if len(g.Events) == 0 || len(g.Users) == 0 {
			d.StrandedEvents += len(g.Events)
			d.StrandedUsers += len(g.Users)
			id = -1
		} else {
			d.Components = append(d.Components, g)
		}
		for _, v := range g.Events {
			d.eventComp[v] = id
		}
		for _, u := range g.Users {
			d.userComp[u] = id
		}
	}
	return d
}

// observeBuild closes a decomp/build span and records the build time.
func (d *Decomposition) observeBuild(sp *obs.Span, start time.Time) {
	d.BuildSeconds = time.Since(start).Seconds()
	sp.Annotate("components", len(d.Components)).
		Annotate("stranded_events", d.StrandedEvents).
		Annotate("stranded_users", d.StrandedUsers).End()
	decompBuildSeconds.Observe(d.BuildSeconds)
}

// materialize builds the sub-instances of the components named by ids
// from the decomposed instance: a static one, or an arranger's own.
func (d *Decomposition) materialize(in *core.Instance, ids []int) error {
	evSub := make([]int, len(in.Events))
	for _, id := range ids {
		c := &d.Components[id]
		sub, err := in.Sub(c.Events, c.Users, evSub)
		if err != nil {
			return fmt.Errorf("decomp: materialize component: %w", err)
		}
		c.Sub = sub
	}
	return nil
}

// MaxComponentArea returns the largest |V|·|U| over the components named
// by ids, or over every component when ids is nil — the budget driver for
// exact solves (the server uses it to gate decomposed exact requests and
// rebalances the way it gates monolithic ones).
func (d *Decomposition) MaxComponentArea(ids []int) int64 {
	if ids == nil {
		ids = d.allIDs()
	}
	var max int64
	for _, id := range ids {
		c := d.Components[id]
		if a := int64(len(c.Events)) * int64(len(c.Users)); a > max {
			max = a
		}
	}
	return max
}

// Stats converts the decomposition into the Diagnostics artifact form;
// Workers is the size of the pool a solve over it runs on.
func (d *Decomposition) Stats() *core.DecompositionStats {
	st := &core.DecompositionStats{
		Components:     len(d.Components),
		StrandedEvents: d.StrandedEvents,
		StrandedUsers:  d.StrandedUsers,
		Workers:        poolSize(len(d.Components)),
		BuildSeconds:   d.BuildSeconds,
	}
	for _, c := range d.Components {
		if len(c.Events)*len(c.Users) > st.LargestEvents*st.LargestUsers {
			st.LargestEvents = len(c.Events)
			st.LargestUsers = len(c.Users)
		}
	}
	return st
}
