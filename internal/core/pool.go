package core

import (
	"sync"

	"github.com/ebsnlab/geacc/internal/knn"
	"github.com/ebsnlab/geacc/internal/mincostflow"
	"github.com/ebsnlab/geacc/internal/pqueue"
)

// Per-solve scratch pooling. A server solving per request allocates the
// same transient buffers on every call: Greedy's capacity arrays, stream
// tables and candidate heap; MinCostFlow's similarity rows and pair-arc
// index. All of them are dead when
// the solve returns and none leak into the returned Matching, so each gets
// a sync.Pool with a reset that rewrites every byte the next solve reads.
// TestPooledSolveRace exercises concurrent reuse under the race detector;
// the solver property tests pin that pooled and fresh runs are
// bit-identical.

// greedyScratch is the per-run working set of GreedyOpts.
type greedyScratch struct {
	capV, capU   []int
	liveV, liveU knn.Live // ids with capacity left; reset by GreedyOpts
	vStreams     []knn.Stream
	uStreams     []knn.Stream
	heap         *pqueue.PairHeap
}

var greedyScratchPool = sync.Pool{New: func() any { return new(greedyScratch) }}

// acquireGreedyScratch returns a scratch sized for an nv × nu instance.
// Stream tables come back all-nil (GreedyOpts creates streams lazily and
// tests entries against nil); capacity arrays are uninitialized — the
// caller overwrites every entry.
func acquireGreedyScratch(nv, nu int) *greedyScratch {
	g := greedyScratchPool.Get().(*greedyScratch)
	g.capV = resizeInts(g.capV, nv)
	g.capU = resizeInts(g.capU, nu)
	g.vStreams = resizeStreams(g.vStreams, nv)
	g.uStreams = resizeStreams(g.uStreams, nu)
	if g.heap == nil {
		g.heap = pqueue.NewPairHeap(nv, nu)
	} else {
		g.heap.Reset(nv, nu)
	}
	return g
}

// releaseGreedyScratch clears the stream tables (so a pooled scratch never
// pins a finished instance's kernels alive) and returns the scratch.
func releaseGreedyScratch(g *greedyScratch) {
	clear(g.vStreams)
	clear(g.uStreams)
	g.liveV.Release()
	g.liveU.Release()
	greedyScratchPool.Put(g)
}

// mcflowScratch is the per-run working set of relaxedOptimum: the flat
// similarity rows (when no FlowState takes ownership of them), the
// pair-arc index mapping (v, u) to its arc, and a warm solve's user
// columns (warmIndex.userCol).
type mcflowScratch struct {
	rows    []float64
	pairArc []mincostflow.ArcID
	userCol []int
}

var mcflowScratchPool = sync.Pool{New: func() any { return new(mcflowScratch) }}

func acquireMcflowScratch(nv, nu int) *mcflowScratch {
	m := mcflowScratchPool.Get().(*mcflowScratch)
	if cap(m.rows) < nv*nu {
		m.rows = make([]float64, nv*nu)
	} else {
		m.rows = m.rows[:nv*nu]
	}
	if cap(m.pairArc) < nv*nu {
		m.pairArc = make([]mincostflow.ArcID, nv*nu)
	} else {
		m.pairArc = m.pairArc[:nv*nu]
	}
	m.userCol = resizeInts(m.userCol, nu)
	return m
}

func releaseMcflowScratch(m *mcflowScratch) { mcflowScratchPool.Put(m) }

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeStreams(s []knn.Stream, n int) []knn.Stream {
	if cap(s) < n {
		s = make([]knn.Stream, n)
	} else {
		s = s[:n]
	}
	return s
}
