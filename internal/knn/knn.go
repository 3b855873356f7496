// Package knn provides incremental nearest-neighbor streams over a fixed set
// of attribute vectors.
//
// Greedy-GEACC (Algorithm 2 of the paper) repeatedly asks each event/user
// node for its "next feasible unvisited nearest neighbor". The paper notes
// that any k-NN index can serve these queries and cites iDistance and the
// VA-File. This package offers four interchangeable implementations behind
// one interface:
//
//   - Sorted: sorts all candidates up front; the exactness oracle.
//   - Chunked: lazy top-k selection with geometric refill; near-linear total
//     work when only a few neighbors are consumed (the common case), and the
//     default for Greedy-GEACC. Each refill scans only the ids of its Live
//     set still alive (for Greedy, nodes with capacity left), collects the
//     candidates after its cursor and keeps the best k with a quickselect
//     that sorts only those k. PrimeChunked fills the first chunk of every
//     stream of a two-sided run in one pass that scores each pair once.
//   - IDistance: an iDistance-style one-dimensional mapping (reference
//     points + sorted projection; the paper's B+-tree is substituted by a
//     binary-searched sorted array) with incremental radius expansion.
//   - VAFile: a vector-approximation file that scans quantized vectors and
//     verifies candidates in lower-bound order.
//
// IDistance and VAFile serve only the index ablation; production solves use
// Chunked. All streams yield items in non-increasing similarity order and
// stop before items whose similarity is zero, because GEACC never assigns
// zero-similarity pairs. Sorted and Chunked break similarity ties by
// ascending id. IDistance and VAFile traverse in exact distance order, which
// agrees with similarity order except when two distinct distances round to
// the same similarity value; within such floating-point collisions their
// yield order follows distance, not id.
package knn

import (
	"github.com/ebsnlab/geacc/internal/sim"
)

// Index answers incremental nearest-neighbor queries over a fixed data set.
type Index interface {
	// Stream returns a cursor yielding item ids in non-increasing similarity
	// to query (ties broken by ascending id), omitting zero-similarity items.
	Stream(query sim.Vector) Stream
	// Len returns the number of indexed items.
	Len() int
}

// Stream is a cursor over neighbors of one query, most similar first.
type Stream interface {
	// Next returns the next neighbor and its similarity. ok is false when
	// the stream is exhausted (all remaining items have zero similarity).
	Next() (id int, s float64, ok bool)
}

// after reports whether candidate (cs, cid) comes strictly after the cursor
// position (ps, pid) in the global (similarity desc, id asc) order.
func after(cs float64, cid int, ps float64, pid int) bool {
	if cs != ps {
		return cs < ps
	}
	return cid > pid
}

// simBatchBlock is the scan granularity of Chunked refills: sims are
// gathered simBatchBlock ids at a time into a reusable buffer, keeping
// the buffer hot in L1 while amortizing the batch call.
const simBatchBlock = 512

// siftPairs sifts ps[i] down within ps[:n] under the min-heap-on-"worse"
// invariant: ps[0] is the pair that comes last in (sim desc, id asc) order.
func siftPairs(ps []Pair, i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && after(ps[l].S, ps[l].ID, ps[m].S, ps[m].ID) {
			m = l
		}
		if r < n && after(ps[r].S, ps[r].ID, ps[m].S, ps[m].ID) {
			m = r
		}
		if m == i {
			return
		}
		ps[i], ps[m] = ps[m], ps[i]
		i = m
	}
}

// heapifyPairs establishes the siftPairs invariant over all of ps.
func heapifyPairs(ps []Pair) {
	for i := len(ps)/2 - 1; i >= 0; i-- {
		siftPairs(ps, i, len(ps))
	}
}

// sortBestFirst sorts ps into (sim desc, id asc) order in place with an
// in-place heapsort over the after() order. Ids are distinct, so the order
// is a strict total order and the result is the unique sorted sequence —
// identical to what sort.Slice on the same comparator produced, but without
// the comparator-closure and reflection overhead that dominated refill
// profiles.
func sortBestFirst(ps []Pair) {
	heapifyPairs(ps)
	for end := len(ps) - 1; end > 0; end-- {
		// ps[0] is the worst remaining pair; retire it to the end.
		ps[0], ps[end] = ps[end], ps[0]
		siftPairs(ps, 0, end)
	}
}

// Sorted is the reference Index: each Stream call computes and sorts all
// similarities. O(n log n) per stream; exact and simple. Use it as the
// testing oracle and for small instances.
type Sorted struct {
	kernel *sim.Kernel
}

// NewSortedKernel builds a Sorted index over an existing kernel, sharing its
// flat store instead of rebuilding one.
func NewSortedKernel(k *sim.Kernel) *Sorted {
	return &Sorted{kernel: k}
}

// Len returns the number of indexed items.
func (ix *Sorted) Len() int { return ix.kernel.Len() }

// Stream returns a fully-sorted neighbor cursor for query.
func (ix *Sorted) Stream(query sim.Vector) Stream {
	n := ix.kernel.Len()
	sims := make([]float64, n)
	ix.kernel.SimBatch(query, 0, n, sims)
	cands := make([]Pair, 0, n)
	for id, sv := range sims {
		if sv > 0 {
			cands = append(cands, Pair{ID: id, S: sv})
		}
	}
	return SortedStream(cands)
}

// SortedStream sorts ps into (sim desc, id asc) order in place and returns a
// cursor over it. ps must hold distinct ids and only positive similarities.
func SortedStream(ps []Pair) Stream {
	sortBestFirst(ps)
	return &pairStream{pairs: ps}
}

type pairStream struct {
	pairs []Pair
	pos   int
}

func (s *pairStream) Next() (int, float64, bool) {
	if s.pos >= len(s.pairs) {
		return 0, 0, false
	}
	p := s.pairs[s.pos]
	s.pos++
	return p.ID, p.S, true
}
