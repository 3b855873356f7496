package knn

import (
	"github.com/ebsnlab/geacc/internal/sim"
)

// Chunked is the default Index for Greedy-GEACC. A stream materializes only
// the next chunk of nearest neighbors (top-k selection over one linear scan)
// and refills with geometrically growing chunks when exhausted. Nodes that
// consume only a handful of neighbors — the overwhelmingly common case once
// capacities saturate — therefore cost one O(n) scan instead of an
// O(n log n) full sort, which is what keeps Greedy-GEACC near-linear in the
// scalability experiment (Fig. 5a/5b). A refill scores only the ids of its
// Live set that are still alive, one gathered block at a time, then a
// closure-free bounded heap keeps the best k.
type Chunked struct {
	kernel    *sim.Kernel
	live      *Live
	firstSize int
	auto      bool // firstSize was defaulted: scale it with the data size
}

// Live is the shrinking set of ids on one side of a run that can still be
// chosen. alive must be monotone (once false for an id, false for the rest
// of the run): refills drop dead ids in place instead of scoring them. All
// streams of the Chunked index holding a Live share its block buffer, so
// they must be advanced from one goroutine.
type Live struct {
	ids   []int // ascending; may still hold ids that died since the last refill
	alive func(id int) bool
	sims  []float64 // one block of gathered similarities
}

// Reset makes l the live set over ids [0, n) that satisfy alive, reusing
// l's buffers.
func (l *Live) Reset(n int, alive func(id int) bool) {
	l.ids, l.alive = l.ids[:0], alive
	for id := 0; id < n; id++ {
		if alive(id) {
			l.ids = append(l.ids, id)
		}
	}
	if l.sims == nil {
		l.sims = make([]float64, simBatchBlock)
	}
}

// DefaultChunkSize is the number of neighbors materialized by a stream's
// first scan. Subsequent refills double the chunk size.
const DefaultChunkSize = 8

// NewChunked builds a Chunked index over data using similarity f. chunkSize
// controls the first refill; values < 1 select DefaultChunkSize.
func NewChunked(data []sim.Vector, f sim.Func, chunkSize int) *Chunked {
	return NewChunkedKernel(sim.NewKernel(data, f), chunkSize, nil)
}

// NewChunkedKernel builds a Chunked index over an existing kernel, sharing
// its flat store instead of rebuilding one. chunkSize < 1 selects
// DefaultChunkSize. live (over k's rows) restricts refills to its ids; nil
// keeps every row a candidate.
func NewChunkedKernel(k *sim.Kernel, chunkSize int, live *Live) *Chunked {
	if live == nil {
		live = &Live{}
		live.Reset(k.Len(), func(int) bool { return true })
	}
	if chunkSize < 1 {
		// Auto mode: every refill rescans every live row, so on large
		// data a bigger first chunk (top-k selection stays cheap)
		// saves whole extra scans for streams that consume more than a
		// handful of neighbors. The yielded sequence is identical for any
		// chunk size — chunking only changes materialization granularity.
		return &Chunked{kernel: k, live: live, firstSize: DefaultChunkSize, auto: true}
	}
	return &Chunked{kernel: k, live: live, firstSize: chunkSize}
}

// Len returns the number of indexed items.
func (ix *Chunked) Len() int { return ix.kernel.Len() }

// Stream returns a lazily-refilled neighbor cursor for query.
func (ix *Chunked) Stream(query sim.Vector) Stream {
	first := ix.firstSize
	if ix.auto {
		// n/16 makes the common stream (a node consuming a few dozen
		// neighbors) complete in one scan on large data; a chunk-size
		// sweep over TABLE III solves bottomed out around this ratio.
		if byN := ix.kernel.Len() / 16; byN > first {
			first = byN
		}
	}
	return &chunkedStream{ix: ix, query: query, chunk: first}
}

type chunkedStream struct {
	ix    *Chunked
	query sim.Vector
	chunk int // size of the next refill

	buf    []Pair // current chunk, sorted (sim desc, id asc); reused across refills
	pos    int    // cursor within buf
	lastS  float64
	lastID int
	primed bool // false until the first refill
	done   bool // no more neighbors beyond the cursor
}

// Pair is an (id, similarity) candidate used internally by index
// implementations and their tests.
type Pair struct {
	ID int
	S  float64
}

func (s *chunkedStream) Next() (int, float64, bool) {
	for s.pos >= len(s.buf) {
		if s.done {
			return 0, 0, false
		}
		s.refill()
	}
	p := s.buf[s.pos]
	s.pos++
	s.lastS, s.lastID = p.S, p.ID
	return p.ID, p.S, true
}

// refill keeps the best s.chunk live items strictly after the cursor in
// the global order, using buf (fully consumed whenever refill runs) as a
// bounded min-heap. It walks the live ids a block at a time, compacts each
// block's survivors in place (so later refills on this side scan fewer
// ids), and gathers only their similarities.
func (s *chunkedStream) refill() {
	k := s.chunk
	s.chunk *= 2
	heap := s.buf[:0]
	live := s.ix.live
	ids, w := live.ids, 0
	for lo := 0; lo < len(ids); lo += simBatchBlock {
		start := w
		for _, id := range ids[lo:min(lo+simBatchBlock, len(ids))] {
			if live.alive(id) {
				ids[w] = id
				w++
			}
		}
		block := ids[start:w]
		s.ix.kernel.SimGather(s.query, block, live.sims)
		for j, sv := range live.sims[:len(block)] {
			if sv <= 0 {
				continue
			}
			id := block[j]
			if s.primed && !after(sv, id, s.lastS, s.lastID) {
				continue // already yielded or currently buffered region
			}
			if len(heap) < k {
				heap = append(heap, Pair{ID: id, S: sv})
				if len(heap) == k {
					heapifyPairs(heap)
				}
				continue
			}
			// heap[0] is the worst retained candidate; replace it if better.
			if after(heap[0].S, heap[0].ID, sv, id) {
				heap[0] = Pair{ID: id, S: sv}
				siftPairs(heap, 0, k)
			}
		}
	}
	live.ids = ids[:w]
	if len(heap) < k {
		s.done = true // the scan found fewer than k remaining items
	}
	sortBestFirst(heap)
	s.buf = heap
	s.pos = 0
	if len(heap) > 0 {
		s.primed = true
		// Advance the cursor bound to the last buffered element so the next
		// refill resumes after everything currently buffered.
		lastBuffered := heap[len(heap)-1]
		s.lastS, s.lastID = lastBuffered.S, lastBuffered.ID
	}
}
