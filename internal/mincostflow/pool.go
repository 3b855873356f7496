package mincostflow

import (
	"sync"

	"github.com/ebsnlab/geacc/internal/pqueue"
)

// Per-solve allocation pooling. The GEACC reduction builds one flow network
// and one SSPA solver per solve — at v100_u2000 that is ~200k pair arcs
// (five parallel slices) plus the solver's potential/distance/parent arrays
// and Dijkstra heap, all dead the moment the matching is read back. Under a
// sustained request stream those allocations dominate the solve path's GC
// pressure, so both objects are poolable: Reset re-targets the storage at a
// new shape without releasing it, and Acquire/Release wrap that in a
// sync.Pool.
//
// Race safety: a pooled Graph or Solver is owned by exactly one goroutine
// between Acquire and Release, and every field the next solve reads is
// rewritten by Reset (head refilled with -1, arc slices truncated, solver
// counters zeroed), so no state from a previous owner can leak into a
// result. core's TestPooledSolveRace hammers this path under -race.

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
// arc storage. Equivalent to NewGraph(n) with recycled memory.
func (g *Graph) Reset(n int) {
	if n <= 0 {
		panic("mincostflow: non-positive node count in Reset")
	}
	g.numNodes = n
	if cap(g.head) < n {
		g.head = make([]int32, n)
	} else {
		g.head = g.head[:n]
	}
	for i := range g.head {
		g.head[i] = -1
	}
	g.to = g.to[:0]
	g.next = g.next[:0]
	g.cap = g.cap[:0]
	g.cost = g.cost[:0]
}

var solverPool = sync.Pool{New: func() any { return new(Solver) }}

// AcquireSolver returns a Solver prepared for an SSPA run on g, reusing
// pooled array storage. Release with ReleaseSolver after the last
// TotalFlow/TotalCost read; release the Solver before (or together with)
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
// allocated storage. Equivalent to NewSolver with recycled memory.
func (sv *Solver) Reset(g *Graph, s, t int) {
	if s < 0 || s >= g.numNodes || t < 0 || t >= g.numNodes || s == t {
		panic("mincostflow: invalid terminals in Reset")
	}
	n := g.numNodes
	sv.g, sv.s, sv.t = g, s, t
	sv.totalFlow = 0
	sv.totalCost = 0
	sv.pops, sv.arcScans = 0, 0
	sv.pot = resizeFloats(sv.pot, n)
	for i := range sv.pot {
		sv.pot[i] = 0
	}
	sv.dist = resizeFloats(sv.dist, n)
	sv.prev = resizeInt32s(sv.prev, n)
	if sv.heap == nil {
		sv.heap = pqueue.NewIndexedMinHeap(n)
	} else {
		sv.heap.Resize(n)
	}
	hasNegative := false
	for i := 0; i < len(g.cost); i += 2 {
		if g.cap[i] > 0 && g.cost[i] < 0 {
			hasNegative = true
			break
		}
	}
	if hasNegative {
		sv.relaxPotentials()
	}
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
