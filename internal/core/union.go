package core

import (
	"context"
	"slices"
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

// Union merges the sets of a and b. It returns the root of the merged set
// and the root it absorbed, which are equal when a and b were already
// joined.
func (uf *UnionFind) Union(a, b int) (root, absorbed int) {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return ra, rb
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	return ra, rb
}

// unionGraph is the arranger's kept union graph over V ∪ U: an edge per
// pair with sim > 0 and per conflict, the graph internal/decomp splits an
// instance along. It only ever grows — ids are append-only, cancel and
// remove are Cap = 0 tombstones that keep their edges, and conflicts are
// only added — so it is extended, never rebuilt. The first events[:nv] and
// users[:nu] are in it; the rest joined after the last UnionRoots.
//
// Each root also keeps its component's Corollary 1 bound (DESIGN.md, "Kept
// relaxation bound"): bound and updates hold, at every root, an upper
// bound on the component's conflict-free relaxed optimum and how many
// updates it took since the component's last flow solve (KeptBound).
type unionGraph struct {
	uf                  UnionFind
	eventNode, userNode []int // union-find element of each event / user
	nv, nu              int   // the watermark
	bound               []float64
	updates             []int
	top                 []float64 // UnionRoots' scratch: one node's pairs
}

// add appends a singleton with a zero bound and returns its element.
func (g *unionGraph) add() int {
	g.bound = append(g.bound, 0)
	g.updates = append(g.updates, 0)
	return g.uf.Add()
}

// union joins the sets of a and b; the merged root carries both bounds.
func (g *unionGraph) union(a, b int) {
	if r, x := g.uf.Union(a, b); r != x {
		g.bound[r] += g.bound[x]
		g.updates[r] += g.updates[x]
	}
}

// price raises the bound of node's component by the sum of the c largest
// of sims, the most a node of capacity c can add to the relaxation through
// those pairs. sims is scratch and is reordered.
func (g *unionGraph) price(node, c int, sims []float64) {
	if c < len(sims) {
		slices.Sort(sims)
		sims = sims[len(sims)-c:]
	}
	var inc float64
	for i := len(sims) - 1; i >= 0; i-- {
		inc += sims[i]
	}
	if inc > 0 {
		r := g.uf.Find(node)
		g.bound[r] += inc
		g.updates[r]++
	}
}

// loosen counts a capacity drop of a node already priced into the kept
// bound: the relaxation may fall, the bound stays.
func (g *unionGraph) loosen(node int) {
	g.updates[g.uf.Find(node)]++
}

// UnionRoots brings the kept union graph up to date and returns a root
// label for every event and user: two nodes share a component exactly
// when their labels are equal, and labels lie in [0, NumEvents+NumUsers).
// The extension is paid here, not by the deltas: each user added since the
// last call gets its column over the events below the watermark, then each
// event added since then its similarity row over every user plus its
// conflicts, ascending — every new pair once, and every union in an order
// fixed by the op stream, so the kept bounds' float sums are too. The same
// scan prices each new node into its component's kept bound: the sum of
// its Cap largest similarities to nodes of positive capacity on the pairs
// it scanned. The watermark moves
// node by node, after the node is done, so a canceled call leaves the rest
// to the next one and no pair is scanned, or node priced, twice. The first
// call after RestoreArranger scans the whole instance once.
func (a *Arranger) UnionRoots(ctx context.Context) (eventRoot, userRoot []int, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	g := &a.union
	nv, nu := len(a.in.Events), len(a.in.Users)
	for len(g.eventNode) < nv {
		g.eventNode = append(g.eventNode, g.add())
	}
	for len(g.userNode) < nu {
		g.userNode = append(g.userNode, g.add())
	}
	pairs := 0
	defer func() { unionPairs.Add(int64(pairs)) }()
	for i := 0; g.nu < nu; i++ {
		if i%64 == 0 && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		u, c := g.nu, a.in.Users[g.nu].Cap
		top := g.top[:0]
		for v := 0; v < g.nv; v++ {
			if s := a.in.Similarity(v, u); s > 0 {
				g.union(g.eventNode[v], g.userNode[u])
				if c > 0 && a.in.Events[v].Cap > 0 {
					top = append(top, s)
				}
			}
		}
		pairs += g.nv
		g.top = top
		g.price(g.userNode[u], c, top)
		g.nu++
	}
	for i := 0; g.nv < nv; i++ {
		if i%64 == 0 && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		v, c := g.nv, a.in.Events[g.nv].Cap
		top := g.top[:0]
		for u := 0; u < nu; u++ {
			if s := a.in.Similarity(v, u); s > 0 {
				g.union(g.eventNode[v], g.userNode[u])
				if c > 0 && a.in.Users[u].Cap > 0 {
					top = append(top, s)
				}
			}
		}
		pairs += nu
		for _, w := range a.in.Conflicts.Neighbors(v) {
			g.union(g.eventNode[v], g.eventNode[w])
		}
		g.top = top
		g.price(g.eventNode[v], c, top)
		g.nv++
	}

	eventRoot, userRoot = make([]int, nv), make([]int, nu)
	for v, n := range g.eventNode {
		eventRoot[v] = g.uf.Find(n)
	}
	for u, n := range g.userNode {
		userRoot[u] = g.uf.Find(n)
	}
	return eventRoot, userRoot, nil
}

// KeptBound returns the kept Corollary 1 bound of the component holding
// event v: an upper bound on the component's conflict-free relaxed optimum,
// and how many updates the bound took since the component's last flow
// solve — arrivals that raised it, plus cancels and removes of nodes it
// had priced, which it ignored. At 0 updates the bound is the exact relaxed
// optimum, up to rounding. Read it right after UnionRoots, with no
// operation in between.
func (a *Arranger) KeptBound(v int) (bound float64, updates int) {
	r := a.union.uf.Find(a.union.eventNode[v])
	return a.union.bound[r], a.union.updates[r]
}

// SetKeptBound records the exact relaxed optimum of the component holding
// event v, as a flow solve of that component computed it, and clears the
// component's update count. Call it only with the value of the component
// as the last UnionRoots returned it, with no operation in between.
func (a *Arranger) SetKeptBound(v int, bound float64) {
	r := a.union.uf.Find(a.union.eventNode[v])
	a.union.bound[r], a.union.updates[r] = bound, 0
}
