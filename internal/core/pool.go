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

// greedyScratch is the per-run working set of GreedyOpts: the capacity
// arrays, the heap loop's live sets, stream tables and candidate heap, and
// the sweep's similarity table, bucketed keys and bucket records.
type greedyScratch struct {
	capV, capU   []int
	liveV, liveU knn.Live // ids with capacity left; reset by heapGreedy
	vStreams     []knn.Stream
	uStreams     []knn.Stream
	heap         *pqueue.PairHeap

	sims    []float64  // sweep: sims[a*nu+u] for the a-th live event
	events  []int      // sweep: the live events, ascending
	keys    []uint64   // sweep: a<<32 | u, grouped by bucket
	buckets []int32    // sweep: bucket bounds into keys
	recs    []sweepRec // sweep: one bucket's live pairs
}

var greedyScratchPool = sync.Pool{New: func() any { return new(greedyScratch) }}

// maxPooledSweepBytes caps each sweep buffer a pooled scratch keeps: a
// larger one is dropped on release, as the instance decoder's bodyPool
// drops big bodies, so one huge solve does not pin its table forever.
const maxPooledSweepBytes = 4 << 20

// acquireGreedyScratch returns a scratch with capacity arrays sized for an
// nv × nu instance, uninitialized — the caller overwrites every entry.
// Each loop sizes its own buffers (prepareHeap; the sweep resizes its own).
func acquireGreedyScratch(nv, nu int) *greedyScratch {
	g := greedyScratchPool.Get().(*greedyScratch)
	g.capV = resizeInts(g.capV, nv)
	g.capU = resizeInts(g.capU, nu)
	return g
}

// prepareHeap sizes the heap loop's stream tables (all nil: heapGreedy
// creates streams lazily and tests entries against nil) and empties its
// candidate heap.
func (g *greedyScratch) prepareHeap(nv, nu int) {
	g.vStreams = resizeStreams(g.vStreams, nv)
	g.uStreams = resizeStreams(g.uStreams, nu)
	if g.heap == nil {
		g.heap = pqueue.NewPairHeap(nv, nu)
	} else {
		g.heap.Reset(nv, nu)
	}
}

// releaseGreedyScratch clears the stream tables (so a pooled scratch never
// pins a finished instance's kernels alive), drops sweep buffers past
// maxPooledSweepBytes and returns the scratch.
func releaseGreedyScratch(g *greedyScratch) {
	clear(g.vStreams)
	clear(g.uStreams)
	g.liveV.Release()
	g.liveU.Release()
	if cap(g.sims)*8 > maxPooledSweepBytes {
		g.sims = nil
	}
	if cap(g.keys)*8 > maxPooledSweepBytes {
		g.keys = nil
	}
	if cap(g.buckets)*4 > maxPooledSweepBytes {
		g.buckets = nil
	}
	if cap(g.recs)*16 > maxPooledSweepBytes {
		g.recs = nil
	}
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
