package core

import (
	"container/heap"
	"slices"
)

// heapGreedy is Algorithm 2 as the paper states it, kept as the sweep's
// oracle: a heap H of per-node nearest-neighbor candidates, popped in
// (sim desc, v asc, u asc) order. Each node streams its positive pairs in
// (sim desc, id asc) order; after a pop, both endpoints push their next
// candidate that was never pushed, whose other endpoint has capacity and
// that is not blocked (a conflict with a matched event, or Feasible
// refusing it). Trace sees every pop, its capacity rejections labeled
// "event-full" or "user-full". Similarities come from similarityRow, so
// their bits are the sweep's. It returns the matching and the pop count.
// HeapGreedy exports it to the external tests.
func heapGreedy(in *Instance, opt GreedyOptions) (*Matching, int) {
	nv, nu := in.NumEvents(), in.NumUsers()
	sims := make([]float64, nv*nu)
	for v := 0; v < nv; v++ {
		in.similarityRow(v, sims[v*nu:(v+1)*nu])
	}
	capV, capU := make([]int, nv), make([]int, nu)
	for v, e := range in.Events {
		capV[v] = e.Cap
	}
	for u, usr := range in.Users {
		capU[u] = usr.Cap
	}
	vStreams, uStreams := make([]oracleStream, nv), make([]oracleStream, nu)
	for v := range vStreams {
		vStreams[v] = newOracleStream(nu, func(u int) float64 { return sims[v*nu+u] })
	}
	for u := range uStreams {
		uStreams[u] = newOracleStream(nv, func(v int) float64 { return sims[v*nu+u] })
	}

	m := NewMatching()
	h := &oracleHeap{}
	pushed := make([]bool, nv*nu)
	blocked := func(v, u int) bool {
		return conflictsWithMatched(in, m, v, u) || opt.Feasible != nil && !opt.Feasible(v, u)
	}
	push := func(v, u int) bool {
		if pushed[v*nu+u] || capV[v] == 0 || capU[u] == 0 || blocked(v, u) {
			return false
		}
		pushed[v*nu+u] = true
		heap.Push(h, sweepRec{s: sims[v*nu+u], v: int32(v), u: int32(u)})
		return true
	}
	advanceEvent := func(v int) { // Algorithm 2 lines 16-19
		for st := &vStreams[v]; capV[v] > 0 && st.pos < len(st.ids); {
			st.pos++
			if push(v, st.ids[st.pos-1]) {
				return
			}
		}
	}
	advanceUser := func(u int) { // lines 20-23
		for st := &uStreams[u]; capU[u] > 0 && st.pos < len(st.ids); {
			st.pos++
			if push(st.ids[st.pos-1], u) {
				return
			}
		}
	}

	for v := 0; v < nv; v++ { // lines 1-9
		advanceEvent(v)
	}
	for u := 0; u < nu; u++ {
		advanceUser(u)
	}
	pops := 0
	for h.Len() > 0 { // lines 11-23
		pops++
		p := heap.Pop(h).(sweepRec)
		v, u := int(p.v), int(p.u)
		ok := capV[v] > 0 && capU[u] > 0 && !blocked(v, u)
		if ok {
			m.Add(v, u, p.s)
			if opt.onAccept != nil {
				opt.onAccept(v, u)
			}
			capV[v]--
			capU[u]--
		}
		if opt.Trace != nil {
			step := TraceStep{V: v, U: u, Sim: p.s, Accepted: ok}
			switch {
			case ok:
			case capV[v] == 0:
				step.Reason = "event-full"
			case capU[u] == 0:
				step.Reason = "user-full"
			default:
				step.Reason = "conflict"
			}
			opt.Trace(step)
		}
		advanceEvent(v)
		advanceUser(u)
	}
	return m, pops
}

var HeapGreedy = heapGreedy

// oracleStream is one node's positive pairs in (sim desc, id asc) order.
type oracleStream struct {
	ids []int
	pos int
}

func newOracleStream(n int, sim func(id int) float64) oracleStream {
	var ids []int
	for id := 0; id < n; id++ {
		if sim(id) > 0 {
			ids = append(ids, id)
		}
	}
	slices.SortStableFunc(ids, func(a, b int) int {
		switch sa, sb := sim(a), sim(b); {
		case sa > sb:
			return -1
		case sa < sb:
			return 1
		}
		return 0
	})
	return oracleStream{ids: ids}
}

// oracleHeap is the heap H over container/heap: most similar first, ties
// by event, then by user. It spells the order out rather than calling the
// sweep's sweepBefore, so a fault there cannot hide on both sides.
type oracleHeap []sweepRec

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	return a.s > b.s || a.s == b.s && (a.v < b.v || a.v == b.v && a.u < b.u)
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(sweepRec)) }
func (h *oracleHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
