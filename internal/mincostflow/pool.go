package mincostflow

import (
	"fmt"
	"sync"

	"github.com/ebsnlab/geacc/internal/pqueue"
)

// Per-solve allocation pooling. The GEACC reduction builds one flow network
// and one SSPA solver per solve — at v100_u2000 that is ~200k pair arcs
// (three per-arc slices, 20 B per arc, and the forward-star index, one
// 16 B record per arc, plus the sort's scratch) plus the solver's
// potential/distance/parent arrays and Dijkstra heap, all dead the moment
// the matching is read back. Under a
// sustained request stream those allocations dominate the solve path's GC
// pressure, so both objects are poolable: Reset re-targets the storage at a
// new shape without releasing it, and Acquire/Release wrap that in a
// sync.Pool.
//
// Race safety: a pooled Graph or Solver is owned by exactly one goroutine
// between Acquire and Release, and every field the next solve reads is
// rewritten by Reset (arc slices truncated, the adjacency marked stale,
// solver counters zeroed), so no state from a previous owner can leak into
// a result. core's TestPooledSolveRace hammers this path under -race.

var graphPool = sync.Pool{New: func() any { return new(Graph) }}

// AcquireGraph returns an empty n-node Graph, reusing pooled storage when
// shapes allow. Callers pass it back with ReleaseGraph once flows have been
// read; the Graph must not be used after release.
func AcquireGraph(n int) *Graph {
	g := graphPool.Get().(*Graph)
	g.Reset(n)
	return g
}

// ReleaseGraph returns a Graph to the pool. nil is ignored.
func ReleaseGraph(g *Graph) {
	if g != nil {
		graphPool.Put(g)
	}
}

// Reset re-targets the Graph at an empty n-node network, keeping allocated
// arc storage.
func (g *Graph) Reset(n int) {
	if n <= 0 {
		panic("mincostflow: non-positive node count in Reset")
	}
	g.numNodes = n
	g.to = g.to[:0]
	g.cap = g.cap[:0]
	g.cost = g.cost[:0]
	g.indexed = false
}

var solverPool = sync.Pool{New: func() any { return new(Solver) }}

// AcquireSolver returns a Solver prepared for an SSPA run on g, reusing
// pooled array storage. Release with ReleaseSolver after the last
// TotalFlow read; release the Solver before (or together with)
// its Graph, never after the Graph has been re-acquired elsewhere.
func AcquireSolver(g *Graph, s, t int) *Solver {
	sv := solverPool.Get().(*Solver)
	sv.Reset(g, s, t)
	return sv
}

// ReleaseSolver returns a Solver to the pool. nil is ignored. The solver
// drops its Graph reference so a pooled solver never pins a network's arc
// storage alive.
func ReleaseSolver(sv *Solver) {
	if sv == nil {
		return
	}
	sv.g = nil
	solverPool.Put(sv)
}

// Reset prepares the Solver for a fresh SSPA run from s to t on g, keeping
// allocated storage.
func (sv *Solver) Reset(g *Graph, s, t int) {
	sv.bind(g, s, t, "Reset")
	sv.totalFlow = 0
	sv.pot = resize(sv.pot, g.numNodes)
	clear(sv.pot)
	for i := 0; i < len(g.cost); i += 2 {
		if g.cap[i] > 0 && g.cost[i] < 0 {
			sv.relaxPotentials(false)
			break
		}
	}
}

// bind points the Solver at g with terminals s and t: it checks them,
// indexes g's arcs for them, zeroes the search counters and sizes the
// per-node search state. op names the caller in the panic.
func (sv *Solver) bind(g *Graph, s, t int, op string) {
	if s < 0 || s >= g.numNodes || t < 0 || t >= g.numNodes || s == t {
		panic(fmt.Sprintf("mincostflow: invalid terminals s=%d t=%d (n=%d) in %s", s, t, g.numNodes, op))
	}
	n := g.numNodes
	g.index(s, t)
	sv.g, sv.s, sv.t = g, s, t
	sv.pops, sv.arcScans = 0, 0
	sv.fresh = false
	sv.dist = resize(sv.dist, n)
	sv.prev = resize(sv.prev, n)
	if sv.heap == nil {
		sv.heap = pqueue.NewIndexedMinHeap(n)
	} else {
		sv.heap.Resize(n)
	}
}

// resize returns s with length n, reallocating only when its capacity
// falls short; the contents are the caller's to rewrite.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
