package core

import (
	"context"
	"sort"
)

// UnionFind is a disjoint-set forest with union by size and path halving:
// effectively O(1) amortized per operation over the |V|·|U| unions a
// union-graph scan can issue. Elements are numbered from 0; Add appends
// one.
type UnionFind struct {
	parent []int
	size   []int
}

// NewUnionFind returns a forest of n singletons.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

// Add appends a singleton and returns its element id.
func (uf *UnionFind) Add() int {
	x := len(uf.parent)
	uf.parent = append(uf.parent, x)
	uf.size = append(uf.size, 1)
	return x
}

// Find returns the root of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of a and b.
func (uf *UnionFind) Union(a, b int) {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}

// unionGraph is the arranger's kept union graph over V ∪ U: an edge per
// pair with sim > 0 and per conflict, the graph internal/decomp splits an
// instance along. It only ever grows — ids are append-only, cancel and
// remove are Cap = 0 tombstones that keep their edges, and conflicts are
// only added — so it is extended, never rebuilt. The first events[:nv] and
// users[:nu] are in it; the rest joined after the last UnionRoots.
type unionGraph struct {
	uf                  UnionFind
	eventNode, userNode []int // union-find element of each event / user
	nv, nu              int   // the watermark
}

// UnionRoots brings the kept union graph up to date and returns a root
// label for every event and user: two nodes share a component exactly
// when their labels are equal, and labels lie in [0, NumEvents+NumUsers).
// The extension is paid here, not by the deltas: each event added since
// the last call gets its similarity row over every user plus its
// conflicts, and each user added since then its column over the older
// events — every new pair once. The watermark moves only after all of
// that is done, so a canceled call leaves the graph to be extended again
// (unions are idempotent). The first call after RestoreArranger scans the
// whole instance once.
func (a *Arranger) UnionRoots(ctx context.Context) (eventRoot, userRoot []int, err error) {
	g := &a.union
	nv, nu := len(a.events), len(a.users)
	for len(g.eventNode) < nv {
		g.eventNode = append(g.eventNode, g.uf.Add())
	}
	for len(g.userNode) < nu {
		g.userNode = append(g.userNode, g.uf.Add())
	}
	pairs := 0
	defer func() { unionPairs.Add(int64(pairs)) }()
	for v := g.nv; v < nv; v++ {
		if (v-g.nv)%64 == 0 && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		for u := 0; u < nu; u++ {
			if a.sim(v, u) > 0 {
				g.uf.Union(g.eventNode[v], g.userNode[u])
			}
		}
		pairs += nu
		for w := range a.conflicts[v] {
			g.uf.Union(g.eventNode[v], g.eventNode[w])
		}
	}
	for u := g.nu; u < nu; u++ {
		if (u-g.nu)%64 == 0 && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		for v := 0; v < g.nv; v++ {
			if a.sim(v, u) > 0 {
				g.uf.Union(g.eventNode[v], g.userNode[u])
			}
		}
		pairs += g.nv
	}
	g.nv, g.nu = nv, nu

	eventRoot, userRoot = make([]int, nv), make([]int, nu)
	for v, n := range g.eventNode {
		eventRoot[v] = g.uf.Find(n)
	}
	for u, n := range g.userNode {
		userRoot[u] = g.uf.Find(n)
	}
	return eventRoot, userRoot, nil
}

// ConflictNeighbors returns the events conflicting with event v, ascending,
// in a fresh slice.
func (a *Arranger) ConflictNeighbors(v int) []int {
	out := make([]int, 0, len(a.conflicts[v]))
	for w := range a.conflicts[v] {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}
