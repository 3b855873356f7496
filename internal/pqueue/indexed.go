// Package pqueue provides the indexed min-heap with decrease-key that
// Dijkstra's shortest path search uses inside the min-cost-flow solver.
package pqueue

// IndexedMinHeap is a binary min-heap over the integer keys [0, n) with
// float64 priorities and an O(log n) decrease-key (Push of a present
// key). Keys not currently in the heap occupy no slot. Each slot carries
// its key's priority inline, so a comparison reads only the heap array,
// and the sifts move a hole rather than swapping. The zero value is not usable; call NewIndexedMinHeap.
type IndexedMinHeap struct {
	entries []heapEntry // heap order: entries[0] has the smallest priority
	pos     []int32     // pos[key] = index in entries, or -1 if absent
}

type heapEntry struct {
	prio float64
	key  int32
}

// NewIndexedMinHeap returns an empty heap over the key space [0, n).
func NewIndexedMinHeap(n int) *IndexedMinHeap {
	h := &IndexedMinHeap{}
	h.Resize(n)
	return h
}

// Len returns the number of keys currently in the heap.
func (h *IndexedMinHeap) Len() int { return len(h.entries) }

// Push inserts key with the given priority. If the key is already present,
// Push lowers its priority when the new one is smaller and is a no-op
// otherwise, which is exactly the relaxation step Dijkstra needs.
func (h *IndexedMinHeap) Push(key int, priority float64) {
	if i := h.pos[key]; i >= 0 {
		if priority < h.entries[i].prio {
			h.up(int(i), heapEntry{priority, int32(key)})
		}
		return
	}
	h.entries = append(h.entries, heapEntry{})
	h.up(len(h.entries)-1, heapEntry{priority, int32(key)})
}

// Pop removes and returns the key with the smallest priority. It panics on
// an empty heap.
func (h *IndexedMinHeap) Pop() (key int, priority float64) {
	top := h.entries[0]
	last := len(h.entries) - 1
	x := h.entries[last]
	h.entries = h.entries[:last]
	h.pos[top.key] = -1
	if last > 0 {
		h.down(x)
	}
	return int(top.key), top.prio
}

// Reset empties the heap without releasing its storage, so one allocation
// serves many Dijkstra runs.
func (h *IndexedMinHeap) Reset() {
	for _, e := range h.entries {
		h.pos[e.key] = -1
	}
	h.entries = h.entries[:0]
}

// Resize empties the heap and re-targets it at the key space [0, n),
// growing storage only when the new space exceeds the old capacity. Slots
// carried over keep the "absent" invariant (every entry ever touched is
// restored to -1 by Reset/Pop), so no O(n) refill is needed on the reuse
// path — the property the pooled min-cost-flow solver relies on.
func (h *IndexedMinHeap) Resize(n int) {
	h.Reset()
	if cap(h.pos) < n {
		h.pos = make([]int32, n)
		for i := range h.pos {
			h.pos[i] = -1
		}
		h.entries = make([]heapEntry, 0, n)
		return
	}
	h.pos = h.pos[:n]
}

// up places x at hole i or above it, moving each parent with a larger
// priority down into the hole.
func (h *IndexedMinHeap) up(i int, x heapEntry) {
	for i > 0 {
		parent := (i - 1) / 2
		p := h.entries[parent]
		if !(x.prio < p.prio) {
			break
		}
		h.entries[i] = p
		h.pos[p.key] = int32(i)
		i = parent
	}
	h.entries[i] = x
	h.pos[x.key] = int32(i)
}

// down places x at the root hole or below it, moving the smaller child up
// while it beats x; on equal children the left one wins.
func (h *IndexedMinHeap) down(x heapEntry) {
	n := len(h.entries)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c, cp := l, h.entries[l].prio
		if !(cp < x.prio) {
			c, cp = i, x.prio
		}
		if r := l + 1; r < n && h.entries[r].prio < cp {
			c = r
		}
		if c == i {
			break
		}
		e := h.entries[c]
		h.entries[i] = e
		h.pos[e.key] = int32(i)
		i = c
	}
	h.entries[i] = x
	h.pos[x.key] = int32(i)
}
