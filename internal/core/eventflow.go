package core

import (
	"math"
	"math/bits"
)

// eventFlow is the conflict-free relaxation's min-cost flow (Lemma 1, the
// §III.A network) searched in event space: over the source s, the |V|
// events and the sink t, with no user node. A residual path enters a user
// from an event and leaves it for another event or for t, so every user
// step is one compound arc between the nodes kept, and the user's
// potential cancels from its reduced cost (DESIGN.md, "Event-space
// search"). The flow is the set of pairs carrying their one unit, with
// each event's and each user's load the number of its pairs.
//
// The compound arcs are kept in tables, each entry with the user that
// realizes it:
//
//   - d[v*nv+w], v → (u) → w: the least sim(w,u) − sim(v,u) over users u
//     with a unit to w, none from v, and sim(v,u) > 0;
//   - tCost[v], v → (u) → t: the least 1 − sim(v,u) over users u with free
//     capacity, no unit from v, and sim(v,u) > 0, read from v's positive
//     users by descending similarity past a cursor over saturated ones;
//   - rCost[v], t → (u) → v: the least sim(v,u) − 1 over v's own users,
//     computed when a warm repair or a retreat reads it.
//
// After a push only the path's users change. An entry whose user stopped
// realizing it is recomputed from the per-event and per-user pair lists;
// every other entry takes a min-update with the candidates that appeared.
type eventFlow struct {
	nv, nu     int
	flip       bool      // the search side is the instance's users (see reset)
	rows       []float64 // rows[v*nu+u] = sim(v, u)
	capV, capU []int

	on         []bool  // on[v*nu+u]: the pair carries its unit
	usersOf    []int32 // event v's users: usersOf[offV[v]:offV[v]+lenV[v]]
	offV, lenV []int32
	eventsOf   []int32 // user u's events: eventsOf[offU[u]:offU[u]+lenU[u]]
	offU, lenU []int32

	d       []float64 // compound arcs between events, +Inf when absent
	dUser   []int32
	colBits []uint64 // column w's present arcs: bit x of colBits[w*words:] is set when dUser[x][w] >= 0
	words   int
	tCost   []float64 // compound arcs into t, +Inf when absent
	tUser   []int32
	rCost   []float64 // compound arcs out of t, +Inf when absent
	rUser   []int32
	colX    []int32   // user u's positive events, ascending: colX[offC[u]:offC[u+1]]
	colS    []float64 // their similarities to u
	offC    []int32
	order   []userRec // event v's positive users: order[offO[v]:offO[v+1]]
	offO    []int32
	heaped  []uint8 // 0: v's order is as built; 1: scanned once; 2: a sorted prefix and a heap
	sorted  []int32 // order[offO[v]:sorted[v]] is by descending similarity, the rest a heap
	cursor  []int32 // the first user in v's order that may realize tCost[v]

	// pot holds the potentials: events at [0, nv), s at nv, t at nv+1.
	pot            []float64
	dist, toDst    []float64
	prev, via      []int32  // search tree: predecessor node and the user of the arc from it
	live           []int32  // unsettled events of the running search
	zero           []uint64 // the running search's events at distance 0, as bits
	dirty          []bool
	direct         bool // the last search certified a two-arc path s → v → t without settling
	hops           []flowHop
	sat            []int32 // users a push saturated or freed, with their prior loads
	satLoad        []int32
	work           flowWork
	cyclesCanceled int
	passes         int
}

// flowHop is one event-space arc of a path or cycle: from and to are
// nodes (events, s = nv or t = nv+1), u the user of a compound arc or -1
// for an arc of s.
type flowHop struct{ from, u, to int32 }

// flowWork is one relaxation's search work, flushed to the
// geacc_mcflow_* counters by observeFlowWork.
type flowWork struct {
	searches int64 // dense event-space searches
	paths    int64 // units pushed from s (retreats are not counted)
	pops     int64 // events settled
	scans    int64 // compound arcs relaxed
}

// reset sizes f for in's relaxation over rows, with no flow and zero
// potentials; buildTables then fills the tables for the flow a warm solve
// restores, or for none. Unflipped, the search runs over the events and
// rows[v*nu+u] = sim(v, u). Flipped, for an instance with more events
// than users, it runs over the users, and rows holds the transposed
// table: the network read backwards — source, users, events, sink — is
// the same network with the same minimum-cost flows, and the search and
// its tables stay within min(|V|, |U|)². Everything below calls the
// search side "events" and the other side "users".
func (f *eventFlow) reset(in *Instance, rows []float64, flip bool) {
	nv, nu := in.NumEvents(), in.NumUsers()
	if flip {
		nv, nu = nu, nv
	}
	f.nv, f.nu, f.rows, f.flip = nv, nu, rows, flip
	f.capV, f.capU = resizeSlice(f.capV, nv), resizeSlice(f.capU, nu)
	for v, e := range in.Events {
		if flip {
			f.capU[v] = max(e.Cap, 0)
		} else {
			f.capV[v] = max(e.Cap, 0)
		}
	}
	for u, usr := range in.Users {
		if flip {
			f.capV[u] = max(usr.Cap, 0)
		} else {
			f.capU[u] = max(usr.Cap, 0)
		}
	}
	f.on = resizeSlice(f.on, nv*nu)
	clear(f.on)
	f.offV, f.lenV = resizeSlice(f.offV, nv+1), resizeSlice(f.lenV, nv)
	f.offU, f.lenU = resizeSlice(f.offU, nu+1), resizeSlice(f.lenU, nu)
	f.offO = resizeSlice(f.offO, nv+1)
	f.sorted = resizeSlice(f.sorted, nv)
	f.heaped = resizeSlice(f.heaped, nv)
	clear(f.lenV)
	clear(f.lenU)

	// Each event's positive users, most similar first: the order tCost
	// is read in. An event holds at most min(c_v, positive users) pairs.
	f.order = resizeSlice(f.order, nv*nu)
	f.offC = resizeSlice(f.offC, nu+1)
	clear(f.offC)
	k := 0
	for v := 0; v < nv; v++ {
		start := k
		for u, s := range rows[v*nu : (v+1)*nu] {
			if s > 0 {
				f.order[k] = userRec{s, int32(u)}
				f.offC[u+1]++
				k++
			}
		}
		f.offO[v+1] = int32(k)
		f.offV[v+1] = f.offV[v] + int32(min(f.capV[v], k-start))
		f.heaped[v] = 0
	}
	f.order = f.order[:k]
	// Each user's positive events with their similarities, so a column
	// update reads one contiguous run.
	for u := 0; u < nu; u++ {
		f.offC[u+1] += f.offC[u]
	}
	f.colX = resizeSlice(f.colX, k)
	f.colS = resizeSlice(f.colS, k)
	for v := 0; v < nv; v++ {
		for _, r := range f.order[f.offO[v]:f.offO[v+1]] {
			k := f.offC[r.u]
			f.colX[k], f.colS[k] = int32(v), r.sim
			f.offC[r.u]++
		}
	}
	copy(f.offC[1:], f.offC[:nu])
	f.offC[0] = 0
	f.offU[0] = 0
	for u := 0; u < nu; u++ {
		f.offU[u+1] = f.offU[u] + int32(min(f.capU[u], nv))
	}
	f.usersOf = resizeSlice(f.usersOf, int(f.offV[nv]))
	f.eventsOf = resizeSlice(f.eventsOf, int(f.offU[nu]))

	f.d, f.dUser = resizeSlice(f.d, nv*nv), resizeSlice(f.dUser, nv*nv)
	f.words = (nv + 63) / 64
	f.colBits = resizeSlice(f.colBits, nv*f.words)
	f.zero = resizeSlice(f.zero, f.words)
	f.tCost, f.tUser = resizeSlice(f.tCost, nv), resizeSlice(f.tUser, nv)
	f.rCost, f.rUser = resizeSlice(f.rCost, nv), resizeSlice(f.rUser, nv)
	f.cursor = resizeSlice(f.cursor, nv)
	f.pot = resizeSlice(f.pot, nv+2)
	clear(f.pot)
	f.dist, f.toDst = resizeSlice(f.dist, nv+2), resizeSlice(f.toDst, nv)
	f.prev, f.via = resizeSlice(f.prev, nv+2), resizeSlice(f.via, nv+2)
	f.live = resizeSlice(f.live, nv+2)
	f.dirty = resizeSlice(f.dirty, nv+2)
	f.work, f.cyclesCanceled, f.passes = flowWork{}, 0, 0
}

// buildTables computes d and tCost from the current flow, with every
// cursor at the start of its order.
func (f *eventFlow) buildTables() {
	nv := f.nv
	for i := range f.d {
		f.d[i], f.dUser[i] = inf, -1
	}
	clear(f.colBits)
	for w := 0; w < nv; w++ {
		for _, u := range f.users(w) {
			f.columnMin(w, int(u))
		}
	}
	for v := 0; v < nv; v++ {
		f.cursor[v] = f.offO[v]
		f.recomputeT(v)
	}
}

// pair returns the index in rows and on of the instance's pair (v, u),
// and its search-side and other-side ends.
func (f *eventFlow) pair(v, u int) (i, x, y int) {
	if f.flip {
		v, u = u, v
	}
	return v*f.nu + u, v, u
}

// users returns event v's users; events returns user u's events.
func (f *eventFlow) users(v int) []int32 {
	return f.usersOf[f.offV[v] : f.offV[v]+f.lenV[v]]
}

func (f *eventFlow) events(u int) []int32 {
	return f.eventsOf[f.offU[u] : f.offU[u]+f.lenU[u]]
}

// free reports whether user u has capacity left.
func (f *eventFlow) free(u int) bool { return int(f.lenU[u]) < f.capU[u] }

// add puts a unit on pair (v, u); drop takes it off. Neither touches the
// tables.
func (f *eventFlow) add(v, u int) {
	f.on[v*f.nu+u] = true
	f.usersOf[f.offV[v]+f.lenV[v]] = int32(u)
	f.lenV[v]++
	f.eventsOf[f.offU[u]+f.lenU[u]] = int32(v)
	f.lenU[u]++
}

func (f *eventFlow) drop(v, u int) {
	f.on[v*f.nu+u] = false
	removeID(f.usersOf[f.offV[v]:f.offV[v]+f.lenV[v]], int32(u))
	f.lenV[v]--
	removeID(f.eventsOf[f.offU[u]:f.offU[u]+f.lenU[u]], int32(v))
	f.lenU[u]--
}

// removeID overwrites id in s with s's last element.
func removeID(s []int32, id int32) {
	for i, x := range s {
		if x == id {
			s[i] = s[len(s)-1]
			return
		}
	}
}

// clearFlow takes every unit off and rebuilds the tables, for a warm
// repair that falls back cold.
func (f *eventFlow) clearFlow() {
	for v := 0; v < f.nv; v++ {
		for _, u := range f.users(v) {
			f.on[v*f.nu+int(u)] = false
		}
	}
	clear(f.lenV)
	clear(f.lenU)
	clear(f.pot)
	f.buildTables()
}

// recomputeD sets d[x][w] from w's users.
func (f *eventFlow) recomputeD(x, w int) {
	nu, rows := f.nu, f.rows
	best, bu := inf, int32(-1)
	xr, wr := rows[x*nu:(x+1)*nu], rows[w*nu:(w+1)*nu]
	on := f.on[x*nu : (x+1)*nu]
	for _, u := range f.users(w) {
		if sx := xr[u]; sx > 0 && !on[u] {
			if c := wr[u] - sx; c < best {
				best, bu = c, u
			}
		}
	}
	f.setD(x, w, best, bu)
}

// setD sets d[x][w] and its user, and keeps x's bit in column w's set of
// present arcs.
func (f *eventFlow) setD(x, w int, c float64, u int32) {
	f.d[x*f.nv+w], f.dUser[x*f.nv+w] = c, u
	k, bit := w*f.words+x>>6, uint64(1)<<(x&63)
	if u >= 0 {
		f.colBits[k] |= bit
	} else {
		f.colBits[k] &^= bit
	}
}

// recomputeT sets tCost[v] from v's order, moving its cursor past the
// users that lead it and cannot realize the arc: saturated ones and v's
// own. Either kind returns only through freed or dropped, which move the
// cursor back to the start. The order is sorted only as far as a scan
// has read it: each step past the sorted prefix pops the most similar
// user left in the heap behind it. The heap is built on the second call;
// the first, the only one most events get in a warm solve, is one linear
// pass.
func (f *eventFlow) recomputeT(v int) {
	nu := f.nu
	on := f.on[v*nu : (v+1)*nu]
	start, end := int(f.offO[v]), int(f.offO[v+1])
	switch f.heaped[v] {
	case 0:
		f.heaped[v] = 1
		best := userRec{u: -1}
		for _, r := range f.order[start:end] {
			if !on[r.u] && f.free(int(r.u)) && (best.u < 0 || r.before(best)) {
				best = r
			}
		}
		if best.u < 0 {
			f.tCost[v], f.tUser[v] = inf, -1
		} else {
			f.tCost[v], f.tUser[v] = 1-best.sim, best.u
		}
		return
	case 1:
		f.heaped[v] = 2
		heapifyUsers(f.order[start:end])
		f.sorted[v], f.cursor[v] = int32(start), int32(start)
	}
	for i := int(f.cursor[v]); i < end; i++ {
		if i == int(f.sorted[v]) {
			popUser(f.order[i:end])
			f.sorted[v]++
		}
		if r := f.order[i]; !on[r.u] && f.free(int(r.u)) {
			f.cursor[v] = int32(i)
			f.tCost[v], f.tUser[v] = 1-r.sim, r.u
			return
		}
	}
	f.cursor[v] = int32(end)
	f.tCost[v], f.tUser[v] = inf, -1
}

// userRec is one entry of an event's order: a positive user and its
// similarity to the event.
type userRec struct {
	sim float64
	u   int32
}

// before orders users by descending similarity, then ascending id.
func (a userRec) before(b userRec) bool {
	return a.sim > b.sim || a.sim == b.sim && a.u < b.u
}

// The unsorted rest of an event's order is a binary heap stored backwards:
// its root is the last element and the children of the k-th from the end
// are the (2k+1)-th and (2k+2)-th from the end, so popping the root frees
// the first slot, where the sorted prefix grows.

// heapifyUsers makes h a backwards heap under before.
func heapifyUsers(h []userRec) {
	for k := len(h)/2 - 1; k >= 0; k-- {
		siftUsers(h, k)
	}
}

// popUser moves the first user of h, a backwards heap, to its first slot
// and leaves the rest a backwards heap.
func popUser(h []userRec) {
	n := len(h)
	h[0], h[n-1] = h[n-1], h[0]
	siftUsers(h[1:], 0)
}

// siftUsers moves the k-th element from the end of the backwards heap h
// down to its place.
func siftUsers(h []userRec, k int) {
	n := len(h)
	for {
		c := 2*k + 1
		if c >= n {
			return
		}
		if c+1 < n && h[n-2-c].before(h[n-1-c]) {
			c++
		}
		if !h[n-1-c].before(h[n-1-k]) {
			return
		}
		h[n-1-c], h[n-1-k] = h[n-1-k], h[n-1-c]
		k = c
	}
}

// columnMin offers user u, which now carries a unit to b, to every entry
// d[x][b].
func (f *eventFlow) columnMin(b, u int) {
	nv, nu := f.nv, f.nu
	sb := f.rows[b*nu+u]
	lo, hi := f.offC[u], f.offC[u+1]
	for k, x := range f.colX[lo:hi] {
		if f.on[int(x)*nu+u] {
			continue
		}
		if c := sb - f.colS[int(lo)+k]; c < f.d[int(x)*nv+b] {
			f.setD(int(x), b, c, int32(u))
		}
	}
}

// computeR sets rCost from every event's users.
func (f *eventFlow) computeR() {
	nu := f.nu
	for v := 0; v < f.nv; v++ {
		best, bu := inf, int32(-1)
		for _, u := range f.users(v) {
			if c := f.rows[v*nu+int(u)] - 1; c < best {
				best, bu = c, u
			}
		}
		f.rCost[v], f.rUser[v] = best, bu
	}
}

// apply moves one unit along the hops of a path or cycle and brings the
// tables up to date. Hop (x, u, y) between events moves u's unit from y to
// x; from t it takes u's unit off y; into t it puts a unit of u on x. Arcs
// of s move no pair: an event's load is its pair count.
func (f *eventFlow) apply(hops []flowHop) {
	nv, t := int32(f.nv), int32(f.nv+1)
	f.sat, f.satLoad = f.sat[:0], f.satLoad[:0]
	for _, h := range hops {
		if h.u >= 0 && (h.from == t || h.to == t) {
			f.sat = append(f.sat, h.u)
			f.satLoad = append(f.satLoad, f.lenU[h.u])
		}
	}
	// Drops first, so no pair list ever holds more than its capacity.
	for _, h := range hops {
		if h.u >= 0 && h.to < nv {
			f.drop(int(h.to), int(h.u))
		}
	}
	for _, h := range hops {
		if h.u >= 0 && h.from < nv {
			f.add(int(h.from), int(h.u))
		}
	}

	for _, h := range hops {
		if h.u < 0 {
			continue
		}
		u := int(h.u)
		if h.to < nv {
			f.dropped(int(h.to), u)
		}
		if h.from < nv {
			f.added(int(h.from), u)
		}
	}
	for i, u := range f.sat {
		was, now := int(f.satLoad[i]) < f.capU[u], f.free(int(u))
		switch {
		case was && !now:
			for x := 0; x < f.nv; x++ {
				if f.tUser[x] == u {
					f.recomputeT(x)
				}
			}
		case !was && now:
			f.freed(int(u))
		}
	}
}

// added updates the tables for a unit just put on pair (b, u).
func (f *eventFlow) added(b, u int) {
	nv := f.nv
	f.columnMin(b, u)
	row := f.dUser[b*nv : (b+1)*nv]
	for w, du := range row {
		if int(du) == u {
			f.recomputeD(b, w)
		}
	}
	if int(f.tUser[b]) == u {
		f.recomputeT(b)
	}
}

// dropped updates the tables for a unit just taken off pair (a, u).
func (f *eventFlow) dropped(a, u int) {
	nv, nu := f.nv, f.nu
	for x := 0; x < nv; x++ {
		if int(f.dUser[x*nv+a]) == u {
			f.recomputeD(x, a)
		}
	}
	sa := f.rows[a*nu+u]
	if f.on[a*nu+u] {
		return
	}
	f.cursor[a] = f.offO[a]
	for _, w := range f.events(u) {
		if c := f.rows[int(w)*nu+u] - sa; c < f.d[a*nv+int(w)] {
			f.setD(a, int(w), c, int32(u))
		}
	}
	if f.free(u) {
		if c := 1 - sa; c < f.tCost[a] {
			f.tCost[a], f.tUser[a] = c, int32(u)
		}
	}
}

// freed updates tCost for user u, saturated before a push and free after
// it (a warm repair or a retreat): u may again realize any event's arc
// into t, and the cursors that passed it go back to the start.
func (f *eventFlow) freed(u int) {
	lo, hi := f.offC[u], f.offC[u+1]
	for k, x := range f.colX[lo:hi] {
		f.cursor[x] = f.offO[x]
		if c := 1 - f.colS[int(lo)+k]; c < f.tCost[x] && !f.on[int(x)*f.nu+u] {
			f.tCost[x], f.tUser[x] = c, int32(u)
		}
	}
}

// search runs one dense Dijkstra over reduced costs from s to t or, to
// retreat, from t to s, settling events in distance order until the next
// one is no nearer than the target. It returns the target's distance
// (+Inf when unreachable) and leaves the path's last event in
// prev[target]. The potentials are not touched; see advance. Reduced
// costs that rounding pushes below 0 count as 0.
func (f *eventFlow) search(retreat bool) float64 {
	nv := f.nv
	s, t := nv, nv+1
	dst := t
	if retreat {
		dst = s
	}
	pot, dist, prev, via, toDst := f.pot, f.dist, f.prev, f.via, f.toDst
	// toDst[v] is the reduced cost of v's arc into the target: its arc
	// into t, or, retreating, its arc into s. live holds the unsettled
	// events, those at distance 0 first: no arc can lower a label below 0,
	// so they settle first, in any order, and relax only the events
	// behind them.
	live, zero := f.live[:nv], 0
	dDst, last, least := inf, -1, inf
	lenV, capV := f.lenV[:nv], f.capV[:nv]
	tCost, rCost, rUser := f.tCost[:nv], f.rCost[:nv], f.rUser[:nv]
	ps, pt := pot[s], pot[t]
	for v := range live {
		// An absent arc costs +Inf, and so does its reduced cost.
		pv := pot[v]
		d, e := inf, inf
		if !retreat {
			if int(lenV[v]) < capV[v] {
				d = nonneg(ps - pv)
				prev[v], via[v] = int32(s), -1
			}
			e = nonneg(tCost[v] + pv - pt)
		} else {
			if rUser[v] >= 0 {
				d = nonneg(rCost[v] + pt - pv)
				prev[v], via[v] = int32(t), rUser[v]
			}
			if lenV[v] > 0 {
				e = nonneg(pv - ps)
			}
		}
		dist[v], toDst[v] = d, e
		if e < least {
			least = e
		}
		live[v] = int32(v)
		if d == 0 {
			live[zero], live[v] = live[v], live[zero]
			zero++
			if e < dDst {
				dDst, last = e, v
			}
		}
	}
	// Every path ends with some event's arc into the target, and no
	// reduced distance is negative, so when an event at distance 0 has the
	// least arc into the target of all, its two-arc path is shortest.
	f.direct = !retreat && last >= 0 && dDst == least
	if f.direct {
		prev[dst], via[dst] = int32(last), f.tUser[last]
		f.work.searches++
		f.work.pops++
		return dDst
	}
	pops, scans := int64(zero), int64(0)
	rest := live[zero:]
	if dDst == 0 {
		rest = rest[:0]
	}
	if len(rest) > 0 {
		// Each event behind the zero group takes its least arc from it,
		// read from the column's present arcs in event order.
		zm := f.zero
		clear(zm)
		for _, v := range live[:zero] {
			zm[v>>6] |= 1 << (v & 63)
		}
		for _, w := range rest {
			col := f.colBits[int(w)*f.words : (int(w)+1)*f.words]
			dw, pw := dist[w], pot[w]
			for k, m := range col {
				m &= zm[k]
				scans += int64(bits.OnesCount64(m))
				for ; m != 0; m &= m - 1 {
					z := k<<6 | bits.TrailingZeros64(m)
					if nd := pot[z] + f.d[z*nv+int(w)] - pw; nd < dw {
						dw = nd
						prev[w], via[w] = int32(z), f.dUser[z*nv+int(w)]
					}
				}
			}
			dist[w] = nonneg(dw)
		}
	}
	live = rest
	best, bestD := -1, inf
	for i, w := range live {
		if dist[w] < bestD {
			best, bestD = i, dist[w]
		}
	}
	for best >= 0 && bestD < dDst {
		v := int(live[best])
		live[best] = live[len(live)-1]
		live = live[:len(live)-1]
		pops++
		dv, pv := bestD, pot[v]
		if l := dv + toDst[v]; l < dDst {
			dDst, last = l, v
		}
		row, users := f.d[v*nv:(v+1)*nv], f.dUser[v*nv:(v+1)*nv]
		best, bestD = -1, inf
		scans += int64(len(live))
		base := dv + pv
		for i, w := range live {
			dw := dist[w]
			if nd := base + row[w] - pot[w]; nd < dw {
				if nd < dv {
					nd = dv
				}
				dw = nd
				dist[w], prev[w], via[w] = nd, int32(v), users[w]
			}
			if dw < bestD {
				best, bestD = i, dw
			}
		}
	}
	if last >= 0 {
		prev[dst], via[dst] = int32(last), -1
		if !retreat {
			via[dst] = f.tUser[last]
		}
	}
	f.work.searches++
	f.work.pops += pops
	f.work.scans += scans
	dist[dst] = dDst
	return dDst
}

// inf marks an absent arc and an unreached node.
var inf = math.Inf(1)

// nonneg returns x, or 0 when x is negative.
func nonneg(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// advance applies the truncated potential update after a search that
// reached its target at distance h: every event moves by min(dist, h),
// the target by h, the source by 0. Every residual compound arc keeps a
// non-negative reduced cost, those on the shortest path a zero one. After
// a direct path only t moves: every arc into t had a reduced cost of at
// least h, and each arc the push opens, x → (u) → v for the path's event
// v and user u, costs at least the arc x → (u) → t it could have taken
// instead, less the path's own last arc: its reduced cost stays
// non-negative (DESIGN.md, "Event-space search").
func (f *eventFlow) advance(retreat bool, h float64) {
	nv := f.nv
	if f.direct {
		f.pot[nv+1] += h
		return
	}
	for v := 0; v < nv; v++ {
		f.pot[v] += min(f.dist[v], h)
	}
	if retreat {
		f.pot[nv] += h
	} else {
		f.pot[nv+1] += h
	}
}

// push moves one unit along the path the last search found to its target.
func (f *eventFlow) push(retreat bool) {
	nv := int32(f.nv)
	s, t := nv, nv+1
	src, dst := s, t
	if retreat {
		src, dst = t, s
	}
	hops := f.hops[:0]
	for x := dst; x != src; {
		p := f.prev[x]
		hops = append(hops, flowHop{from: p, u: f.via[x], to: x})
		x = p
	}
	f.hops = hops
	f.apply(hops)
	if !retreat {
		f.work.paths++
	}
}

// augment pushes the next unit when its path costs less than 1, the
// stopping rule of the Δ-sweep, and reports whether it did.
func (f *eventFlow) augment() bool {
	nv := f.nv
	h := f.search(false)
	if math.IsInf(h, 1) || h+f.pot[nv+1]-f.pot[nv] >= 1 {
		return false
	}
	f.advance(false, h)
	f.push(false)
	return true
}

// retreat takes back the flow's costliest unit when undoing it refunds at
// least 1 — a unit the cold sweep would never have pushed — and reports
// whether it did. Reduced distances are non-negative, so no t–s path
// costs less than pot[s] − pot[t]: when even that refunds too little,
// no search runs.
func (f *eventFlow) retreat() bool {
	nv := f.nv
	if f.pot[nv]-f.pot[nv+1] > -1 {
		return false
	}
	f.computeR()
	h := f.search(true)
	if math.IsInf(h, 1) || h+f.pot[nv]-f.pot[nv+1] > -1 {
		return false
	}
	f.advance(true, h)
	f.push(true)
	return true
}

// arcs calls fn for every residual event-space arc out of node p with its
// cost and user. rCost must be current.
func (f *eventFlow) arcs(p int, fn func(w int, c float64, u int32)) {
	nv := f.nv
	s, t := nv, nv+1
	switch p {
	case s:
		for v := 0; v < nv; v++ {
			if int(f.lenV[v]) < f.capV[v] {
				fn(v, 0, -1)
			}
		}
	case t:
		for v := 0; v < nv; v++ {
			if f.rUser[v] >= 0 {
				fn(v, f.rCost[v], f.rUser[v])
			}
		}
	default:
		if f.lenV[p] > 0 {
			fn(s, 0, -1)
		}
		if f.tUser[p] >= 0 {
			fn(t, f.tCost[p], f.tUser[p])
		}
		row, users := f.d[p*nv:(p+1)*nv], f.dUser[p*nv:(p+1)*nv]
		for w, c := range row {
			if users[w] >= 0 {
				fn(w, c, users[w])
			}
		}
	}
}

// repair makes a restored flow optimal for its amount and the potentials
// valid for it: Bellman–Ford over the |V|+2 event-space nodes from a
// virtual source joined to each node at its potential, cancelling each
// negative cycle the parent pointers close, then exact passes for the
// potentials. It reports false when the cancelling or the relaxation does
// not converge; the caller then falls back cold.
func (f *eventFlow) repair() bool {
	const eps = 1e-12
	n := f.nv + 2
	lab := f.dist[:n]
	for f.cyclesCanceled <= n+64 {
		f.computeR()
		copy(lab, f.pot)
		for i := range n {
			f.prev[i], f.dirty[i] = -1, true
		}
		canceled := false
		for pass := 1; pass <= n && !canceled; pass++ {
			f.passes++
			relaxed := false
			for p := 0; p < n; p++ {
				if !f.dirty[p] {
					continue
				}
				f.dirty[p] = false
				lp := lab[p]
				f.arcs(p, func(w int, c float64, u int32) {
					if nd := lp + c; nd < lab[w]-eps {
						lab[w], f.prev[w], f.via[w] = nd, int32(p), u
						f.dirty[w], relaxed = true, true
					}
				})
			}
			if !relaxed {
				return f.relaxPotentials(lab)
			}
			if w := f.parentCycle(); w >= 0 {
				f.cancelCycle(w)
				canceled = true
			}
		}
		if !canceled {
			return false
		}
	}
	return false
}

// relaxPotentials lowers the labels lab until no residual arc violates
// them, exactly, and makes them the potentials. It reports whether that
// took at most |V|+2 passes.
func (f *eventFlow) relaxPotentials(lab []float64) bool {
	n := f.nv + 2
	for range n + 1 {
		changed := false
		for p := 0; p < n; p++ {
			lp := lab[p]
			f.arcs(p, func(w int, c float64, _ int32) {
				if nd := lp + c; nd < lab[w] {
					lab[w], changed = nd, true
				}
			})
		}
		f.passes++
		if !changed {
			copy(f.pot, lab)
			return true
		}
	}
	return false
}

// parentCycle returns a node on a cycle of the parent pointers, or -1.
func (f *eventFlow) parentCycle() int {
	n := f.nv + 2
	stamp := f.live[:0]
	for range n {
		stamp = append(stamp, 0)
	}
	for v := range n {
		id, w := int32(v+1), v
		for stamp[w] == 0 && f.prev[w] >= 0 {
			stamp[w] = id
			w = int(f.prev[w])
		}
		if stamp[w] == id {
			return w
		}
	}
	return -1
}

// cancelCycle pushes one unit around the parent cycle through w.
func (f *eventFlow) cancelCycle(w int) {
	hops := f.hops[:0]
	for x := int32(w); ; {
		p := f.prev[x]
		hops = append(hops, flowHop{from: p, u: f.via[x], to: x})
		if x = p; int(x) == w {
			break
		}
	}
	f.hops = hops
	f.apply(hops)
	f.cyclesCanceled++
}

// total returns the flow amount: the pairs carrying a unit.
func (f *eventFlow) total() int64 {
	var n int64
	for _, l := range f.lenV {
		n += int64(l)
	}
	return n
}
