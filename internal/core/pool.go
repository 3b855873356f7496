package core

import "sync"

// Per-solve scratch pooling. A server solving per request allocates the
// same transient buffers on every call: Greedy's capacity arrays and sweep
// buffers; MinCostFlow's similarity rows and pair-arc
// index. All of them are dead when
// the solve returns and none leak into the returned Matching, so each gets
// a sync.Pool with a reset that rewrites every byte the next solve reads.
// TestPooledSolveRace exercises concurrent reuse under the race detector;
// the solver property tests pin that pooled and fresh runs are
// bit-identical.

// greedyScratch is the per-run working set of GreedyOpts: the capacity
// arrays and the sweep's similarity table, bucketed keys, bucket bounds
// and records.
type greedyScratch struct {
	capV, capU []int

	sims    []float64  // sims[a*nu+u] for the a-th live event; a band pass's line
	events  []int      // the live events, ascending
	keys    []uint64   // a<<32 | u, grouped by bucket
	buckets []int32    // bucket bounds into keys or a band
	recs    []sweepRec // one bucket's live pairs; a band and its bucketed copy
	held    []sweepRec // a traced band's blocked pairs
}

var greedyScratchPool = sync.Pool{New: func() any { return new(greedyScratch) }}

// maxPooledSweepBytes caps each sweep buffer a pooled scratch keeps: a
// larger one is dropped on release, as the instance decoder's bodyPool
// drops big bodies, so one huge solve does not pin its table forever.
const maxPooledSweepBytes = 4 << 20

// acquireGreedyScratch returns a scratch with capacity arrays sized for an
// nv × nu instance, uninitialized — the caller overwrites every entry.
// The sweep sizes its own buffers.
func acquireGreedyScratch(nv, nu int) *greedyScratch {
	g := greedyScratchPool.Get().(*greedyScratch)
	g.capV = resizeSlice(g.capV, nv)
	g.capU = resizeSlice(g.capU, nu)
	return g
}

// releaseGreedyScratch drops sweep buffers past maxPooledSweepBytes and
// returns the scratch.
func releaseGreedyScratch(g *greedyScratch) {
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
	if cap(g.held)*16 > maxPooledSweepBytes {
		g.held = nil
	}
	greedyScratchPool.Put(g)
}

// mcflowScratch is the per-run working set of relaxedOptimum: the flat
// similarity rows (when no FlowState takes ownership of them) and their
// transpose for a flipped search, the event-space flow with its tables,
// and a warm solve's user columns (warmIndex.userCol).
type mcflowScratch struct {
	rows, trows []float64
	flow        eventFlow
	userCol     []int
}

var mcflowScratchPool = sync.Pool{New: func() any { return new(mcflowScratch) }}

func acquireMcflowScratch(nv, nu int) *mcflowScratch {
	m := mcflowScratchPool.Get().(*mcflowScratch)
	m.rows = resizeSlice(m.rows, nv*nu)
	if nv > nu {
		m.trows = resizeSlice(m.trows, nv*nu)
	}
	m.userCol = resizeSlice(m.userCol, nu)
	return m
}

// releaseMcflowScratch drops the flow's reference to the rows, which a
// FlowState may own, and returns the scratch.
func releaseMcflowScratch(m *mcflowScratch) {
	m.flow.rows = nil
	mcflowScratchPool.Put(m)
}

// resizeSlice returns s with length n, reallocating only when its
// capacity falls short; the contents are the caller's to rewrite.
func resizeSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
