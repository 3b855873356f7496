package core

import (
	"cmp"
	"fmt"
	"slices"
)

// Assignment is one matched (event, user) pair together with its
// interestingness value.
type Assignment struct {
	V   int
	U   int
	Sim float64
}

// Matching is an event-participant arrangement M. It accumulates MaxSum(M)
// incrementally and maintains per-user and per-event views used by the
// algorithms and the validator.
//
// The views are dense, indexed by id: a view is a slot carved from an
// arena block the matching owns, first slotV (events) or slotU (users)
// ints wide and re-carved twice as wide when it fills. Adding a pair
// allocates only when a block runs out, and Reset keeps the newest block,
// so a matching sized up front (NewMatchingSized) or reused allocates
// nothing per node. Every view lists its node's pairs in insertion order.
type Matching struct {
	pairs      []Assignment
	maxSum     float64
	userEvents [][]int // u -> matched events, in insertion order
	eventUsers [][]int // v -> matched users, in insertion order

	slotV, slotU int   // first slot width of an event's / a user's view
	block        []int // newest arena block; views are carved from block[free:]
	free         int
}

// maxSizedPairs caps the pairs NewMatchingSized reserves room for: the
// count is a hint (often a capacity bound), and a matching that outgrows
// it still grows.
const maxSizedPairs = 1 << 16

// NewMatching returns an empty arrangement whose views grow with the ids
// added.
func NewMatching() *Matching { return NewMatchingSized(0, 0, 0) }

// NewMatchingSized returns an empty arrangement with room for event ids
// below nv, user ids below nu and about pairs pairs (an exact count or a
// capacity bound), so filling it carves every view from one arena block.
// Larger ids and more pairs still fit; the matching grows.
func NewMatchingSized(nv, nu, pairs int) *Matching {
	nv, nu, pairs = max(nv, 0), max(nu, 0), min(max(pairs, 0), maxSizedPairs)
	m := &Matching{slotV: firstSlot(pairs, nv), slotU: firstSlot(pairs, nu)}
	if pairs > 0 {
		m.pairs = make([]Assignment, 0, pairs)
		m.block = make([]int, min(nv, pairs)*m.slotV+min(nu, pairs)*m.slotU)
	}
	if nv > 0 {
		m.eventUsers = make([][]int, nv)
	}
	if nu > 0 {
		m.userEvents = make([][]int, nu)
	}
	return m
}

// firstSlot is a view's first width on a side of n nodes sharing pairs
// pairs: one and a half times the mean degree, rounded up, within [2, 64].
func firstSlot(pairs, n int) int {
	if n == 0 {
		return 2
	}
	return min(max((3*pairs+2*n-1)/(2*n), 2), 64)
}

// Add records m(v, u) = 1 with the given similarity. It panics on a
// negative id and on duplicate pairs: every algorithm in this package must
// add a pair at most once.
func (m *Matching) Add(v, u int, s float64) {
	if v < 0 || u < 0 {
		panic(fmt.Sprintf("core: pair (%d, %d) has a negative id", v, u))
	}
	if m.Contains(v, u) {
		panic(fmt.Sprintf("core: pair (%d, %d) added twice", v, u))
	}
	m.pairs = append(m.pairs, Assignment{V: v, U: u, Sim: s})
	m.maxSum += s
	m.userEvents = m.push(m.userEvents, u, v, m.slotU)
	m.eventUsers = m.push(m.eventUsers, v, u, m.slotV)
}

// push appends x to views[id], extending views to id first and re-carving
// the view twice as wide (at least slot) when it is full. The old slot is
// left unused until Reset.
func (m *Matching) push(views [][]int, id, x, slot int) [][]int {
	if id >= len(views) {
		views = append(views, make([][]int, id+1-len(views))...)
	}
	s := views[id]
	if len(s) == cap(s) {
		n := max(2*len(s), slot)
		if len(m.block)-m.free < n {
			m.block, m.free = make([]int, max(n, 2*len(m.block), 64)), 0
		}
		t := m.block[m.free : m.free+len(s) : m.free+n]
		copy(t, s)
		m.free += n
		s = t
	}
	views[id] = append(s, x)
	return views
}

// Contains reports whether m(v, u) = 1.
func (m *Matching) Contains(v, u int) bool {
	return u >= 0 && u < len(m.userEvents) && slices.Contains(m.userEvents[u], v)
}

// Reset empties m for reuse: its pair list, views and newest arena block
// keep their storage, so refilling it to the same shape allocates nothing.
// Slices m handed out before (Pairs, views) must no longer be read.
func (m *Matching) Reset() {
	m.pairs = m.pairs[:0]
	m.maxSum = 0
	clear(m.userEvents)
	clear(m.eventUsers)
	m.free = 0
}

// Size returns |M|, the number of matched pairs.
func (m *Matching) Size() int { return len(m.pairs) }

// MaxSum returns MaxSum(M) = Σ m(v,u)·sim(l_v, l_u), the objective of
// Definition 5.
func (m *Matching) MaxSum() float64 { return m.maxSum }

// Pairs returns the assignments in insertion order. The slice is owned by
// the matching; callers must not modify it.
func (m *Matching) Pairs() []Assignment { return m.pairs }

// SortedPairs returns the assignments sorted by (V, U), independent of
// insertion order — convenient for comparisons and stable output.
func (m *Matching) SortedPairs() []Assignment {
	return m.AppendSortedPairs(nil)
}

// AppendSortedPairs appends the assignments to dst in (V, U) order and
// returns the extended slice. A counting pass over V places each pair in
// its event's run, keeping insertion order within the run, and a short
// insertion sort orders each run by U; pairs are unique, so the order is
// total. Event ids spread much wider than the pair count (never the case
// for a matching of an instance's dense ids) fall back to a comparison
// sort, so the count array stays O(pairs).
func (m *Matching) AppendSortedPairs(dst []Assignment) []Assignment {
	n := len(m.pairs)
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	out := dst[base:]
	if n == 0 {
		return dst
	}
	lo, hi := m.pairs[0].V, m.pairs[0].V
	for _, p := range m.pairs[1:] {
		lo, hi = min(lo, p.V), max(hi, p.V)
	}
	if uint(hi)-uint(lo) >= uint(4*n+64) {
		copy(out, m.pairs)
		slices.SortFunc(out, func(a, b Assignment) int {
			if c := cmp.Compare(a.V, b.V); c != 0 {
				return c
			}
			return cmp.Compare(a.U, b.U)
		})
		return dst
	}
	// next[k] is the slot of event lo+k's next pair; once every pair is
	// placed it is the end of that event's run.
	next := make([]int, hi-lo+1)
	for _, p := range m.pairs {
		if k := p.V - lo; k+1 < len(next) {
			next[k+1]++
		}
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	for _, p := range m.pairs {
		k := p.V - lo
		out[next[k]] = p
		next[k]++
	}
	start := 0
	for _, end := range next {
		sortRunByU(out[start:end])
		start = end
	}
	return dst
}

// sortRunByU orders one event's run by user id: insertion sort for the
// short runs event capacities give, a comparison sort past that.
func sortRunByU(run []Assignment) {
	if len(run) > 64 {
		slices.SortFunc(run, func(a, b Assignment) int { return cmp.Compare(a.U, b.U) })
		return
	}
	for i := 1; i < len(run); i++ {
		p := run[i]
		j := i
		for ; j > 0 && run[j-1].U > p.U; j-- {
			run[j] = run[j-1]
		}
		run[j] = p
	}
}

// UserEvents returns the events user u is arranged to, in insertion order
// (nil when there are none). The slice is owned by the matching.
func (m *Matching) UserEvents(u int) []int { return view(m.userEvents, u) }

// EventUsers returns the users arranged to event v, in insertion order
// (nil when there are none). The slice is owned by the matching.
func (m *Matching) EventUsers(v int) []int { return view(m.eventUsers, v) }

func view(views [][]int, id int) []int {
	if id < 0 || id >= len(views) || len(views[id]) == 0 {
		return nil
	}
	return views[id]
}

// dropUser removes every pair of user u in place; dropEvent does the same
// for event v, and dropPair for the one pair (v, u). The other pairs keep
// their insertion order and each node's view its order, and maxSum is
// re-summed in pair order, so the result is bit-identical to rebuilding the
// matching through Add without them.
func (m *Matching) dropUser(u int) {
	events := m.UserEvents(u)
	if events == nil {
		return
	}
	for _, v := range events {
		m.eventUsers[v] = dropID(m.eventUsers[v], u)
	}
	m.userEvents[u] = events[:0]
	m.dropPairs(func(p Assignment) bool { return p.U == u })
}

func (m *Matching) dropEvent(v int) {
	users := m.EventUsers(v)
	if users == nil {
		return
	}
	for _, u := range users {
		m.userEvents[u] = dropID(m.userEvents[u], v)
	}
	m.eventUsers[v] = users[:0]
	m.dropPairs(func(p Assignment) bool { return p.V == v })
}

func (m *Matching) dropPair(v, u int) {
	if !m.Contains(v, u) {
		return
	}
	m.userEvents[u] = dropID(m.userEvents[u], v)
	m.eventUsers[v] = dropID(m.eventUsers[v], u)
	m.dropPairs(func(p Assignment) bool { return p.V == v && p.U == u })
}

// dropID removes id from a view in place; the view keeps its slot.
func dropID(view []int, id int) []int {
	return slices.DeleteFunc(view, func(x int) bool { return x == id })
}

// dropPairs removes the pairs matching drop and re-sums maxSum in order.
func (m *Matching) dropPairs(drop func(Assignment) bool) {
	m.pairs = slices.DeleteFunc(m.pairs, drop)
	m.maxSum = 0
	for _, p := range m.pairs {
		m.maxSum += p.Sim
	}
}

// userSims lays out m's similarities by user into off and sims (reusing
// their storage): user u's run is sims[off[u]:off[u+1]], the k-th entry
// the similarity of its pair with event UserEvents(u)[k], because a view
// and the pair list keep the same insertion order.
func (m *Matching) userSims(off []int, sims []float64) ([]int, []float64) {
	off = slices.Grow(off[:0], len(m.userEvents)+1)[:len(m.userEvents)+1]
	next := 0
	for u, evs := range m.userEvents {
		off[u] = next
		next += len(evs)
	}
	off[len(m.userEvents)] = next
	sims = slices.Grow(sims[:0], next)[:next]
	for _, p := range m.pairs {
		sims[off[p.U]] = p.Sim
		off[p.U]++
	}
	// Each off[u] now holds its run's end; shift back to the starts.
	copy(off[1:], off[:len(m.userEvents)])
	off[0] = 0
	return off, sims
}

// Clone returns an independent copy of the matching.
func (m *Matching) Clone() *Matching {
	c := NewMatchingSized(len(m.eventUsers), len(m.userEvents), len(m.pairs))
	for _, p := range m.pairs {
		c.Add(p.V, p.U, p.Sim)
	}
	return c
}

// Validate checks that m is a feasible arrangement for in per Definition 5:
// indices in range, similarities positive and consistent with the instance,
// event and user capacities respected, and no user assigned to two
// conflicting events. (Add refuses a repeated pair, so no matching holds
// one.)
func Validate(in *Instance, m *Matching) error {
	return m.check(feasibility{
		events: len(in.Events), users: len(in.Users),
		sim:         func(p Assignment) float64 { return in.Similarity(p.V, p.U) },
		eventCap:    func(v int) int { return in.Events[v].Cap },
		userCap:     func(u int) int { return in.Users[u].Cap },
		conflicting: in.Conflicting,
	})
}

// feasibility is what check holds a matching to: events × users ids, the
// similarity each pair must store, capacities and the conflict relation.
type feasibility struct {
	events, users     int
	sim               func(Assignment) float64
	eventCap, userCap func(int) int
	conflicting       func(i, j int) bool
}

// check is the one feasibility rule behind Validate and
// Arranger.SetMatching, reporting the first violation in this order: a
// pair out of range, storing another similarity than f.sim, or with
// sim <= 0; an event, then a user, over capacity; a user in two
// conflicting events.
func (m *Matching) check(f feasibility) error {
	for _, p := range m.pairs {
		if p.V >= f.events || p.U >= f.users {
			return fmt.Errorf("core: pair (%d, %d) out of range", p.V, p.U)
		}
		if want := f.sim(p); p.Sim != want {
			return fmt.Errorf("core: pair (%d, %d) stores sim %v, instance says %v", p.V, p.U, p.Sim, want)
		}
		if p.Sim <= 0 {
			return fmt.Errorf("core: pair (%d, %d) has non-positive similarity %v", p.V, p.U, p.Sim)
		}
	}
	// Every pair is in range, so the views past events/users are empty.
	for v, users := range m.eventUsers[:min(len(m.eventUsers), f.events)] {
		if load := len(users); load > f.eventCap(v) {
			return fmt.Errorf("core: event %d over capacity: %d > %d", v, load, f.eventCap(v))
		}
	}
	for u, events := range m.userEvents[:min(len(m.userEvents), f.users)] {
		if load := len(events); load > f.userCap(u) {
			return fmt.Errorf("core: user %d over capacity: %d > %d", u, load, f.userCap(u))
		}
	}
	for u, events := range m.userEvents {
		for i := 0; i < len(events); i++ {
			for j := i + 1; j < len(events); j++ {
				if f.conflicting(events[i], events[j]) {
					return fmt.Errorf("core: user %d assigned to conflicting events %d and %d",
						u, events[i], events[j])
				}
			}
		}
	}
	return nil
}
