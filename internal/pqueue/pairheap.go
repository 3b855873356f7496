package pqueue

// Pair is a candidate (event, user) assignment with its similarity, the
// element type of Greedy-GEACC's heap H.
type Pair struct {
	V   int     // event index
	U   int     // user index
	Sim float64 // interestingness value of the pair
}

// PairHeap is a max-heap of candidate pairs ordered by similarity, with the
// guarantee that no pair is ever pushed twice (Algorithm 2 requires "push
// {v, u} into H if it is not yet in H", and pairs already popped — visited
// pairs — must not re-enter either). Ties on similarity break on (V, U)
// ascending so results are deterministic across runs.
type PairHeap struct {
	items []Pair
	// seen has one bit per (V, U) pair, at V*width+U, set when the pair is
	// pushed. Popped pairs keep their bit: a visited pair must never be
	// pushed again.
	seen  []uint64
	width int
}

// NewPairHeap returns an empty heap for pairs of numEvents × numUsers
// (the sizes fix the visited set and its pair keys).
func NewPairHeap(numEvents, numUsers int) *PairHeap {
	h := &PairHeap{}
	h.Reset(numEvents, numUsers)
	return h
}

// Len returns the number of pairs currently in the heap.
func (h *PairHeap) Len() int { return len(h.items) }

// Reset empties the heap — items and the visited set both — and re-targets
// it at numEvents × numUsers pairs, keeping the allocated storage so one
// heap serves many Greedy runs (core pools them per solve). It clears only
// the |V|·|U| bits the new run reads.
func (h *PairHeap) Reset(numEvents, numUsers int) {
	words := (numEvents*numUsers + 63) / 64
	if cap(h.seen) < words {
		h.seen = make([]uint64, words)
	} else {
		h.seen = h.seen[:words]
		clear(h.seen)
	}
	h.items = h.items[:0]
	h.width = numUsers
}

// Contains reports whether the pair was ever pushed (it may have been popped
// since). This is the "∈ H or visited" test of Algorithm 2.
func (h *PairHeap) Contains(v, u int) bool {
	k := uint(v*h.width + u)
	return h.seen[k/64]&(1<<(k%64)) != 0
}

// Push inserts the pair unless it was ever pushed before. It returns true if
// the pair was inserted.
func (h *PairHeap) Push(p Pair) bool {
	k := uint(p.V*h.width + p.U)
	w, bit := k/64, uint64(1)<<(k%64)
	if h.seen[w]&bit != 0 {
		return false
	}
	h.seen[w] |= bit
	h.items = append(h.items, p)
	h.up(len(h.items) - 1)
	return true
}

// Pop removes and returns the most similar pair. It panics on an empty heap.
func (h *PairHeap) Pop() Pair {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

// less orders by similarity descending, then (V, U) ascending for
// deterministic tie-breaks.
func (h *PairHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.Sim != b.Sim {
		return a.Sim > b.Sim
	}
	if a.V != b.V {
		return a.V < b.V
	}
	return a.U < b.U
}

func (h *PairHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *PairHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best) {
			best = l
		}
		if r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
}
