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
// scoped rebalance runs the same solve step over the components its deltas
// touched and merges the winners into the current matching.
package decomp

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/ebsnlab/geacc/internal/conflict"
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
	// validate against the parent.
	Sub *core.Instance
}

// Decomposition is the sharding of one instance. Components with no
// possible pair — an isolated event, or a user with zero similarity to
// every event — are not materialized; they are counted as stranded.
type Decomposition struct {
	Parent     *core.Instance
	Components []Component

	// StrandedEvents / StrandedUsers count the nodes whose component has
	// no counterpart side: they cannot appear in any feasible matching.
	StrandedEvents int
	StrandedUsers  int

	// BuildSeconds is the wall-clock cost of the union-graph scan,
	// union-find, and sub-instance materialization.
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
	uf := newUnionFind(nv + nu)
	row := acquireRow(nu)
	defer releaseRow(row)
	for v := 0; v < nv; v++ {
		if v%64 == 0 && ctx.Err() != nil {
			sp.Annotate("error", ctx.Err().Error()).End()
			return nil, ctx.Err()
		}
		in.SimilarityRow(v, row)
		for u, s := range row {
			if s > 0 {
				uf.union(v, nv+u)
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
					uf.union(v, w)
				}
			}
		}
	}

	// Group nodes by root, numbering components in first-appearance order
	// over node ids — deterministic, so downstream seeds and merge order
	// are stable across runs and worker counts.
	compOf := make(map[int]int)
	type group struct {
		events, users []int
	}
	var groups []*group
	for n := 0; n < nv+nu; n++ {
		root := uf.find(n)
		id, ok := compOf[root]
		if !ok {
			id = len(groups)
			compOf[root] = id
			groups = append(groups, &group{})
		}
		if n < nv {
			groups[id].events = append(groups[id].events, n)
		} else {
			groups[id].users = append(groups[id].users, n-nv)
		}
	}

	d := &Decomposition{Parent: in, eventComp: make([]int, nv), userComp: make([]int, nu)}
	// Parent-to-sub index maps, reused across components.
	evSub := make([]int, nv)
	usSub := make([]int, nu)
	for _, g := range groups {
		id := len(d.Components)
		if len(g.events) == 0 || len(g.users) == 0 {
			// No pair can form here: skip materialization, count the nodes.
			d.StrandedEvents += len(g.events)
			d.StrandedUsers += len(g.users)
			id = -1
		}
		for _, v := range g.events {
			d.eventComp[v] = id
		}
		for _, u := range g.users {
			d.userComp[u] = id
		}
		if id < 0 {
			continue
		}
		c, err := materialize(in, g.events, g.users, evSub, usSub)
		if err != nil {
			sp.Annotate("error", err.Error()).End()
			return nil, err
		}
		d.Components = append(d.Components, c)
	}
	d.BuildSeconds = time.Since(start).Seconds()
	sp.Annotate("components", len(d.Components)).
		Annotate("stranded_events", d.StrandedEvents).
		Annotate("stranded_users", d.StrandedUsers).End()
	decompBuildSeconds.Observe(d.BuildSeconds)
	return d, nil
}

// materialize builds the sub-instance for one component. evSub/usSub are
// scratch parent→sub index maps (only the component's entries are written,
// so they can be reused without clearing).
func materialize(in *core.Instance, events, users []int, evSub, usSub []int) (Component, error) {
	for i, v := range events {
		evSub[v] = i
	}
	for i, u := range users {
		usSub[u] = i
	}
	subEvents := make([]core.Event, len(events))
	for i, v := range events {
		subEvents[i] = in.Events[v]
	}
	subUsers := make([]core.User, len(users))
	for i, u := range users {
		subUsers[i] = in.Users[u]
	}
	// Conflict edges always join events of the same component (they are
	// union-graph edges), so remapping never leaves the sub index space.
	var cf *conflict.Graph
	if in.Conflicts != nil {
		cf = conflict.New(len(events))
		for _, v := range events {
			for _, w := range in.Conflicts.Neighbors(v) {
				if v < w {
					cf.Add(evSub[v], evSub[w])
				}
			}
		}
	}
	var sub *core.Instance
	var err error
	if in.Matrix != nil {
		matrix := make([][]float64, len(events))
		for i, v := range events {
			mrow := make([]float64, len(users))
			for j, u := range users {
				mrow[j] = in.Matrix[v][u]
			}
			matrix[i] = mrow
		}
		sub, err = core.NewMatrixInstance(subEvents, subUsers, cf, matrix)
	} else {
		sub, err = core.NewInstance(subEvents, subUsers, cf, in.SimFunc)
	}
	if err != nil {
		return Component{}, fmt.Errorf("decomp: materialize component: %w", err)
	}
	return Component{Events: events, Users: users, Sub: sub}, nil
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

// Stats converts the decomposition into the Diagnostics artifact form.
// workers is normalized the same way SolveContext normalizes Options.Workers.
func (d *Decomposition) Stats(workers int) *core.DecompositionStats {
	st := &core.DecompositionStats{
		Components:     len(d.Components),
		StrandedEvents: d.StrandedEvents,
		StrandedUsers:  d.StrandedUsers,
		Workers:        normalizeWorkers(workers, len(d.Components)),
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

// unionFind is a classic disjoint-set forest with union by size and path
// halving: effectively O(1) amortized per operation over the |V|·|U| unions
// the graph scan can issue.
type unionFind struct {
	parent []int
	size   []int
}

// rowPool recycles the |U|-wide similarity-row scratch of the union-graph
// scan — the decomposition layer's per-build hot allocation under a
// sustained delta/rebalance stream. Rows are fully overwritten by
// SimilarityRow before every read.
var rowPool = sync.Pool{New: func() any { return []float64(nil) }}

func acquireRow(n int) []float64 {
	s := rowPool.Get().([]float64)
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func releaseRow(s []float64) {
	if s != nil {
		rowPool.Put(s) //nolint:staticcheck // slice header allocation is amortized by the saved buffer
	}
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}
