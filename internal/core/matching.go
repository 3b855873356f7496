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
type Matching struct {
	pairs      []Assignment
	maxSum     float64
	userEvents map[int][]int // u -> matched events, in insertion order
	eventUsers map[int][]int // v -> matched users, in insertion order
}

// NewMatching returns an empty arrangement.
func NewMatching() *Matching {
	return &Matching{
		userEvents: make(map[int][]int),
		eventUsers: make(map[int][]int),
	}
}

// Add records m(v, u) = 1 with the given similarity. It panics on duplicate
// pairs: every algorithm in this package must add a pair at most once.
func (m *Matching) Add(v, u int, s float64) {
	if m.Contains(v, u) {
		panic(fmt.Sprintf("core: pair (%d, %d) added twice", v, u))
	}
	m.pairs = append(m.pairs, Assignment{V: v, U: u, Sim: s})
	m.maxSum += s
	m.userEvents[u] = append(m.userEvents[u], v)
	m.eventUsers[v] = append(m.eventUsers[v], u)
}

// Contains reports whether m(v, u) = 1.
func (m *Matching) Contains(v, u int) bool {
	for _, w := range m.userEvents[u] {
		if w == v {
			return true
		}
	}
	return false
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

// UserEvents returns the events user u is arranged to, in insertion order.
// The slice is owned by the matching.
func (m *Matching) UserEvents(u int) []int { return m.userEvents[u] }

// EventUsers returns the users arranged to event v, in insertion order.
// The slice is owned by the matching.
func (m *Matching) EventUsers(v int) []int { return m.eventUsers[v] }

// dropUser removes every pair of user u in place; dropEvent does the same
// for event v. The other pairs keep their insertion order and each node's
// view its order, and maxSum is re-summed in pair order, so the result is
// bit-identical to rebuilding the matching through Add without them.
func (m *Matching) dropUser(u int) {
	for _, v := range m.userEvents[u] {
		dropID(m.eventUsers, v, u)
	}
	delete(m.userEvents, u)
	m.dropPairs(func(p Assignment) bool { return p.U == u })
}

func (m *Matching) dropEvent(v int) {
	for _, u := range m.eventUsers[v] {
		dropID(m.userEvents, u, v)
	}
	delete(m.eventUsers, v)
	m.dropPairs(func(p Assignment) bool { return p.V == v })
}

// dropID removes id from view[key] in place, deleting the key when the
// list empties (a rebuild would never have created it).
func dropID(view map[int][]int, key, id int) {
	if left := slices.DeleteFunc(view[key], func(x int) bool { return x == id }); len(left) > 0 {
		view[key] = left
	} else {
		delete(view, key)
	}
}

// dropPairs removes the pairs matching drop and re-sums maxSum in order.
func (m *Matching) dropPairs(drop func(Assignment) bool) {
	m.pairs = slices.DeleteFunc(m.pairs, drop)
	m.maxSum = 0
	for _, p := range m.pairs {
		m.maxSum += p.Sim
	}
}

// Clone returns an independent copy of the matching.
func (m *Matching) Clone() *Matching {
	c := NewMatching()
	for _, p := range m.pairs {
		c.Add(p.V, p.U, p.Sim)
	}
	return c
}

// Validate checks that m is a feasible arrangement for in per Definition 5:
// indices in range, similarities positive and consistent with the instance,
// no pair assigned twice, event and user capacities respected, and no user
// assigned to two conflicting events.
func Validate(in *Instance, m *Matching) error {
	eventLoad := make([]int, in.NumEvents())
	userLoad := make([]int, in.NumUsers())
	for _, p := range m.pairs {
		if p.V < 0 || p.V >= in.NumEvents() || p.U < 0 || p.U >= in.NumUsers() {
			return fmt.Errorf("core: pair (%d, %d) out of range", p.V, p.U)
		}
		want := in.Similarity(p.V, p.U)
		if p.Sim != want {
			return fmt.Errorf("core: pair (%d, %d) stores sim %v, instance says %v", p.V, p.U, p.Sim, want)
		}
		if p.Sim <= 0 {
			return fmt.Errorf("core: pair (%d, %d) has non-positive similarity %v", p.V, p.U, p.Sim)
		}
		eventLoad[p.V]++
		userLoad[p.U]++
	}
	for v, load := range eventLoad {
		if load > in.Events[v].Cap {
			return fmt.Errorf("core: event %d over capacity: %d > %d", v, load, in.Events[v].Cap)
		}
	}
	for u, load := range userLoad {
		if load > in.Users[u].Cap {
			return fmt.Errorf("core: user %d over capacity: %d > %d", u, load, in.Users[u].Cap)
		}
	}
	for u, events := range m.userEvents {
		seen := make(map[int]bool, len(events))
		for _, v := range events {
			if seen[v] {
				return fmt.Errorf("core: pair (%d, %d) assigned twice", v, u)
			}
			seen[v] = true
		}
		for i := 0; i < len(events); i++ {
			for j := i + 1; j < len(events); j++ {
				if in.Conflicting(events[i], events[j]) {
					return fmt.Errorf("core: user %d assigned to conflicting events %d and %d",
						u, events[i], events[j])
				}
			}
		}
	}
	return nil
}
