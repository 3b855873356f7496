package knn

import (
	"context"

	"github.com/ebsnlab/geacc/internal/sim"
)

// Chunked is the default Index for Greedy-GEACC. A stream materializes only
// the next chunk of nearest neighbors (top-k selection over one linear scan)
// and refills with geometrically growing chunks when exhausted. Nodes that
// consume only a handful of neighbors — the overwhelmingly common case once
// capacities saturate — therefore cost one O(n) scan instead of an
// O(n log n) full sort, which is what keeps Greedy-GEACC near-linear in the
// scalability experiment (Fig. 5a/5b). A refill scores only the ids of its
// Live set that are still alive, one gathered block at a time, collects
// the candidates after the cursor, selects the best k of them in expected
// linear time and sorts only those k (bestFirst). PrimeChunked gives both
// sides of one run their first chunks in a single pass.
type Chunked struct {
	kernel    *sim.Kernel
	live      *Live
	firstSize int
	auto      bool // firstSize was defaulted: scale it with the data size
}

// Live is the shrinking set of ids on one side of a run that can still be
// chosen. alive must be monotone (once false for an id, false for the rest
// of the run): refills drop dead ids in place instead of scoring them. All
// streams of the Chunked index holding a Live share its scratch — the
// block of gathered similarities and the candidate buffer a refill selects
// from — so they must be advanced from one goroutine. The Live also owns
// the arenas PrimeChunked carves those streams and their first chunks
// from, so a pooled Live serves run after run without allocating them.
type Live struct {
	ids   []int // ascending; may still hold ids that died since the last refill
	alive func(id int) bool
	sims  []float64 // one block of gathered similarities
	cands []Pair    // a refill's candidates after its cursor

	streams []chunkedStream // primed streams over this set, one per live query
	chunks  []Pair          // their first chunks, one fixed-size slot each
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

// Release drops l's references into the finished run — the alive
// predicate and the primed streams' indexes, queries and grown chunks — so
// a pooled Live pins no kernel alive. The buffers stay for the next Reset.
func (l *Live) Release() {
	clear(l.streams)
	l.streams, l.alive = l.streams[:0], nil
}

// DefaultChunkSize is the number of neighbors materialized by a stream's
// first scan. Subsequent refills double the chunk size.
const DefaultChunkSize = 8

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
	return &chunkedStream{ix: ix, query: query, chunk: ix.firstChunk()}
}

// firstChunk is the size of a stream's first refill.
func (ix *Chunked) firstChunk() int {
	first := ix.firstSize
	if ix.auto {
		// n/16 makes the common stream (a node consuming a few dozen
		// neighbors) complete in one scan on large data; a chunk-size
		// sweep over TABLE III solves bottomed out around this ratio.
		if byN := ix.kernel.Len() / 16; byN > first {
			first = byN
		}
	}
	return first
}

// primePollPairs is how many pairs PrimeChunked scores between
// cancellation polls.
const primePollPairs = 1 << 14

// PrimeChunked gives every live node of one run its Chunked stream with the
// first chunk already in place, scoring each live (event, user) pair once.
// users and events are the run's two indexes (users is queried by events,
// events by users), each over its own kernel and Live set; a stream's query
// is the node's row in the other index's kernel. eventStreams[v] is set
// for every live event and userStreams[u] for every live user; the other
// entries are left alone.
//
// One pass over the live events gathers each event's similarities over
// the live users through the users kernel, keeps the event's best first
// chunk (bestFirst), and offers each (event, sim) to that user's bounded
// first-chunk buffer. No stream has been read yet, so every primed chunk
// is exactly what the stream's first lazy refill would return over the
// same live sets. The user side reads the same value the event side
// computed, so the similarity must be symmetric bit for bit (sim.Func).
// Streams and chunks are carved from the Live sets' arenas.
//
// ctx is polled every primePollPairs scored pairs; on cancellation the
// pass stops and returns ctx's error with the streams partly primed.
func PrimeChunked(ctx context.Context, users, events *Chunked, eventStreams, userStreams []Stream) error {
	liveU, liveV := users.live, events.live
	kV, kU := users.firstChunk(), events.firstChunk()
	vs := primeArena(liveU, len(liveV.ids), kV)
	us := primeArena(liveV, len(liveU.ids), kU)
	for i, u := range liveU.ids {
		us[i].ix, us[i].query = events, users.kernel.Row(u)
		userStreams[u] = &us[i]
	}

	polled := 0
	for a, v := range liveV.ids {
		if polled += len(liveU.ids); polled >= primePollPairs {
			polled = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s := &vs[a]
		s.ix, s.query = users, events.kernel.Row(v)
		cands := liveU.cands[:0]
		for lo := 0; lo < len(liveU.ids); lo += simBatchBlock {
			block := liveU.ids[lo:min(lo+simBatchBlock, len(liveU.ids))]
			users.kernel.SimGather(s.query, block, liveU.sims)
			for j, sv := range liveU.sims[:len(block)] {
				if sv <= 0 {
					continue
				}
				cands = append(cands, Pair{ID: block[j], S: sv})
				// User block[j]'s first chunk keeps its kU best events;
				// the root of a full buffer is the worst one kept. Events
				// arrive in ascending id order, so an equal similarity
				// never displaces the kept, lower id.
				b := us[lo+j].buf
				if len(b) < kU {
					b = append(b, Pair{ID: v, S: sv})
					if len(b) == kU {
						heapifyPairs(b)
					}
					us[lo+j].buf = b
				} else if sv > b[0].S {
					b[0] = Pair{ID: v, S: sv}
					siftPairs(b, 0, kU)
				}
			}
		}
		liveU.cands = cands
		s.fill(bestFirst(cands, kV), kV)
		eventStreams[v] = s
	}
	for i := range us {
		sortBestFirst(us[i].buf)
		us[i].fill(us[i].buf, kU)
	}
	return nil
}

// primeArena returns n zeroed streams from l's arena, each with an empty
// first-chunk slot of capacity k (a refill that outgrows it reallocates)
// and its next refill sized 2k, as after a lazy first refill of k.
func primeArena(l *Live, n, k int) []chunkedStream {
	if cap(l.streams) < n {
		l.streams = make([]chunkedStream, n)
	} else {
		l.streams = l.streams[:n]
		clear(l.streams)
	}
	if cap(l.chunks) < n*k {
		l.chunks = make([]Pair, n*k)
	}
	for i := range l.streams {
		l.streams[i].chunk = 2 * k
		l.streams[i].buf = l.chunks[i*k : i*k : (i+1)*k]
	}
	return l.streams
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

// refill collects the live items strictly after the cursor in the global
// order into the Live's shared candidate buffer and keeps the best
// s.chunk of them (bestFirst). It walks the live ids a block at a time,
// compacts each block's survivors in place (so later refills on this side
// scan fewer ids), and gathers only their similarities.
func (s *chunkedStream) refill() {
	k := s.chunk
	s.chunk *= 2
	live := s.ix.live
	cands := live.cands[:0]
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
			cands = append(cands, Pair{ID: id, S: sv})
		}
	}
	live.ids = ids[:w]
	live.cands = cands
	s.fill(bestFirst(cands, k), k)
}

// fill installs best — the sorted result of a refill of size k — as the
// stream's current chunk, and moves the cursor bound to its last pair so
// the next refill resumes after everything buffered. Fewer than k pairs
// means the scan found no more.
func (s *chunkedStream) fill(best []Pair, k int) {
	s.buf = append(s.buf[:0], best...)
	s.pos = 0
	s.done = len(best) < k
	if len(best) > 0 {
		s.primed = true
		last := best[len(best)-1]
		s.lastS, s.lastID = last.S, last.ID
	}
}
