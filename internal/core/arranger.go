package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/sim"
)

// Arranger maintains an event-participant arrangement under *online*
// arrival of events and users — the situation a live EBSN actually faces
// (the paper solves the static snapshot; this is the natural operational
// extension). Arrivals are matched greedily against the current state;
// event cancellations release and re-place the affected users; Rebalance
// recomputes the arrangement with the batch Greedy-GEACC when drift
// accumulates.
//
// All operations preserve feasibility (capacities, conflicts, positive
// similarity), which is re-checkable at any time via Snapshot + Validate.
type Arranger struct {
	simFn sim.Func

	events    []Event
	users     []User
	remCapV   []int
	remCapU   []int
	conflicts map[int]map[int]bool // symmetric adjacency over event ids

	matching *Matching
	// simOff and simBuf are SetMatching's scratch: the current matching's
	// similarities laid out by user (Matching.userSims).
	simOff []int
	simBuf []float64

	union unionGraph // kept by UnionRoots (union.go)
}

// NewArranger returns an empty dynamic arrangement using similarity f.
func NewArranger(f sim.Func) (*Arranger, error) {
	if f == nil {
		return nil, fmt.Errorf("core: nil similarity function")
	}
	return &Arranger{
		simFn:     f,
		conflicts: make(map[int]map[int]bool),
		matching:  NewMatching(),
	}, nil
}

// RestoreArranger rebuilds an arranger from a Snapshot pair: the inverse
// used by the persistent instance store (internal/store) to resume a
// long-lived arrangement after a restart. The instance must be a vector
// instance (SimFunc != nil) — matrix instances cannot grow online — and m
// must be feasible for it. The restored arranger reproduces the donor's
// behavior exactly: events, users, conflicts, the matching (in m's
// insertion order, so MaxSum keeps its accumulation order), and the
// remaining capacities derived from caps minus matched load.
func RestoreArranger(in *Instance, m *Matching) (*Arranger, error) {
	if in.SimFunc == nil {
		return nil, fmt.Errorf("core: restore needs a vector instance (matrix instances cannot grow online)")
	}
	if err := Validate(in, m); err != nil {
		return nil, fmt.Errorf("core: restore snapshot is infeasible: %w", err)
	}
	a := &Arranger{
		simFn:     in.SimFunc,
		events:    append([]Event(nil), in.Events...),
		users:     append([]User(nil), in.Users...),
		conflicts: make(map[int]map[int]bool),
		matching:  m.Clone(),
	}
	if in.Conflicts != nil {
		for _, p := range in.Conflicts.Pairs() {
			i, j := p[0], p[1]
			if a.conflicts[i] == nil {
				a.conflicts[i] = make(map[int]bool)
			}
			if a.conflicts[j] == nil {
				a.conflicts[j] = make(map[int]bool)
			}
			a.conflicts[i][j] = true
			a.conflicts[j][i] = true
		}
	}
	a.recomputeRemaining()
	return a, nil
}

// recomputeRemaining rederives the remaining capacities from the declared
// caps minus the current matching's load.
func (a *Arranger) recomputeRemaining() {
	a.remCapV = slices.Grow(a.remCapV[:0], len(a.events))[:len(a.events)]
	for v := range a.events {
		a.remCapV[v] = a.events[v].Cap - len(a.matching.EventUsers(v))
	}
	a.remCapU = slices.Grow(a.remCapU[:0], len(a.users))[:len(a.users)]
	for u := range a.users {
		a.remCapU[u] = a.users[u].Cap - len(a.matching.UserEvents(u))
	}
}

// SetMatching replaces the current arrangement with m. It is the one
// adoption path: the service's component-scoped rebalance, the restore
// after a failed log append and WAL replay all take it. m is checked
// against the arranger's own events, users, conflicts and similarity, with
// no snapshot, before anything changes: every pair in range, sim > 0 and
// equal to the similarity function's value, no node over capacity, no user
// in two conflicting events. Attributes never change, so a pair the current
// matching holds with the same bits was scored when it was adopted and is
// not scored again; a rebalance re-scores only the components it replaced.
// On success the arranger takes ownership of m (the caller must not use it
// afterwards), rederives the remaining capacities and hands back the
// matching it replaced, which it no longer references: a ready restore
// point.
func (a *Arranger) SetMatching(m *Matching) (*Matching, error) {
	cur := a.matching
	a.simOff, a.simBuf = cur.userSims(a.simOff, a.simBuf)
	err := m.check(feasibility{
		events: len(a.events), users: len(a.users),
		sim: func(p Assignment) float64 {
			if p.U < len(cur.userEvents) {
				if k := slices.Index(cur.userEvents[p.U], p.V); k >= 0 &&
					math.Float64bits(a.simBuf[a.simOff[p.U]+k]) == math.Float64bits(p.Sim) {
					return p.Sim
				}
			}
			return a.sim(p.V, p.U)
		},
		eventCap:    func(v int) int { return a.events[v].Cap },
		userCap:     func(u int) int { return a.users[u].Cap },
		conflicting: a.conflicting,
	})
	if err != nil {
		return nil, fmt.Errorf("core: refusing infeasible matching: %w", err)
	}
	a.matching = m
	a.recomputeRemaining()
	return cur, nil
}

// NumEvents returns the number of events ever added (including cancelled
// ones, whose capacity is zeroed).
func (a *Arranger) NumEvents() int { return len(a.events) }

// NumUsers returns the number of users added.
func (a *Arranger) NumUsers() int { return len(a.users) }

// NumPairs returns the number of pairs in the current arrangement.
func (a *Arranger) NumPairs() int { return a.matching.Size() }

// Pairs returns the current arrangement's pairs in insertion order without
// copying them. The slice is the matching's own: read it only while no
// operation runs, and never write it.
func (a *Arranger) Pairs() []Assignment { return a.matching.Pairs() }

// Events returns the arranger's events, indexed by id (cancelled ones keep
// capacity zero). The slice is the arranger's own: read it only while no
// operation runs, and never write it.
func (a *Arranger) Events() []Event { return a.events }

// Users returns the arranger's users, indexed by id, under the same terms
// as Events.
func (a *Arranger) Users() []User { return a.users }

// SimFunc returns the similarity function the arranger was built with.
func (a *Arranger) SimFunc() sim.Func { return a.simFn }

// MaxSum returns the current arrangement's objective.
func (a *Arranger) MaxSum() float64 { return a.matching.MaxSum() }

// Matching returns a copy of the current arrangement.
func (a *Arranger) Matching() *Matching { return a.matching.Clone() }

// UserEvents returns the events user u currently attends.
func (a *Arranger) UserEvents(u int) []int { return a.matching.UserEvents(u) }

// EventUsers returns the users currently arranged to event v.
func (a *Arranger) EventUsers(v int) []int { return a.matching.EventUsers(v) }

// sim returns the similarity between event v and user u.
func (a *Arranger) sim(v, u int) float64 {
	return a.simFn(a.events[v].Attrs, a.users[u].Attrs)
}

func (a *Arranger) conflicting(i, j int) bool {
	return a.conflicts[i][j]
}

func (a *Arranger) conflictsWithMatched(v, u int) bool {
	for _, w := range a.matching.UserEvents(u) {
		if a.conflicting(v, w) {
			return true
		}
	}
	return false
}

// AddEvent registers a new event, declares its conflicts with existing
// events, and greedily recruits the most interested users with spare
// capacity. It returns the event's id. Attributes the similarity cannot
// score (sim.CheckVectors) are refused, as are a negative capacity and a
// conflict with an unknown event.
func (a *Arranger) AddEvent(e Event, conflictsWith []int) (int, error) {
	defer observeArrangerOp("add_event", time.Now())
	if e.Cap < 0 {
		return 0, fmt.Errorf("core: negative event capacity %d", e.Cap)
	}
	if _, err := sim.CheckVectors(a.simFn, []sim.Vector{e.Attrs}); err != nil {
		return 0, fmt.Errorf("core: event: %w", err)
	}
	v := len(a.events)
	for _, w := range conflictsWith {
		if w < 0 || w >= v {
			return 0, fmt.Errorf("core: conflict with unknown event %d", w)
		}
	}
	a.events = append(a.events, e)
	a.remCapV = append(a.remCapV, e.Cap)
	for _, w := range conflictsWith {
		if a.conflicts[v] == nil {
			a.conflicts[v] = make(map[int]bool)
		}
		if a.conflicts[w] == nil {
			a.conflicts[w] = make(map[int]bool)
		}
		a.conflicts[v][w] = true
		a.conflicts[w][v] = true
	}
	a.recruitForEvent(v)
	return v, nil
}

// AddUser registers a new user and greedily arranges them into their most
// interesting feasible events. It returns the user's id. Attributes the
// similarity cannot score (sim.CheckVectors) and a negative capacity are
// refused.
func (a *Arranger) AddUser(u User) (int, error) {
	defer observeArrangerOp("add_user", time.Now())
	if u.Cap < 0 {
		return 0, fmt.Errorf("core: negative user capacity %d", u.Cap)
	}
	if _, err := sim.CheckVectors(a.simFn, []sim.Vector{u.Attrs}); err != nil {
		return 0, fmt.Errorf("core: user: %w", err)
	}
	id := len(a.users)
	a.users = append(a.users, u)
	a.remCapU = append(a.remCapU, u.Cap)
	a.placeUser(id)
	return id, nil
}

// RemoveUser withdraws a user from the platform: their assignments are
// released (freeing event seats) and the affected events greedily recruit
// replacements. Removing twice is a no-op.
func (a *Arranger) RemoveUser(u int) error {
	defer observeArrangerOp("remove_user", time.Now())
	if u < 0 || u >= len(a.users) {
		return fmt.Errorf("core: unknown user %d", u)
	}
	affected := append([]int(nil), a.matching.UserEvents(u)...)
	for _, v := range affected {
		a.remCapV[v]++
	}
	a.matching.dropUser(u)
	a.users[u].Cap = 0
	a.remCapU[u] = 0
	for _, v := range affected {
		a.recruitForEvent(v)
	}
	return nil
}

// CancelEvent removes an event: its assignments are released and every
// affected user is greedily re-placed. Cancelling twice is a no-op.
func (a *Arranger) CancelEvent(v int) error {
	defer observeArrangerOp("cancel_event", time.Now())
	if v < 0 || v >= len(a.events) {
		return fmt.Errorf("core: unknown event %d", v)
	}
	affected := append([]int(nil), a.matching.EventUsers(v)...)
	for _, u := range affected {
		a.remCapU[u]++
	}
	a.matching.dropEvent(v)
	a.events[v].Cap = 0
	a.remCapV[v] = 0
	for _, u := range affected {
		a.placeUser(u)
	}
	return nil
}

// recruitForEvent fills event v with the most interested feasible users.
func (a *Arranger) recruitForEvent(v int) {
	type cand struct {
		u int
		s float64
	}
	var cands []cand
	for u := range a.users {
		if a.remCapU[u] == 0 || a.matching.Contains(v, u) {
			continue
		}
		if s := a.sim(v, u); s > 0 {
			cands = append(cands, cand{u, s})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].s != cands[j].s {
			return cands[i].s > cands[j].s
		}
		return cands[i].u < cands[j].u
	})
	for _, c := range cands {
		if a.remCapV[v] == 0 {
			return
		}
		if a.remCapU[c.u] == 0 || a.conflictsWithMatched(v, c.u) {
			continue
		}
		a.matching.Add(v, c.u, c.s)
		a.remCapV[v]--
		a.remCapU[c.u]--
	}
}

// placeUser arranges user u into their most interesting feasible events.
func (a *Arranger) placeUser(u int) {
	type cand struct {
		v int
		s float64
	}
	var cands []cand
	for v := range a.events {
		if a.remCapV[v] == 0 || a.matching.Contains(v, u) {
			continue
		}
		if s := a.sim(v, u); s > 0 {
			cands = append(cands, cand{v, s})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].s != cands[j].s {
			return cands[i].s > cands[j].s
		}
		return cands[i].v < cands[j].v
	})
	for _, c := range cands {
		if a.remCapU[u] == 0 {
			return
		}
		if a.remCapV[c.v] == 0 || a.conflictsWithMatched(c.v, u) {
			continue
		}
		a.matching.Add(c.v, u, c.s)
		a.remCapV[c.v]--
		a.remCapU[u]--
	}
}

// Snapshot freezes the current state into a static Instance (cancelled
// events keep capacity zero) paired with the current matching, so callers
// can Validate, serialize, or solve it from scratch. The conflict graph is
// built from pairs sorted by (i, j), so every event's adjacency is
// ascending and equal snapshots are equal down to adjacency order.
func (a *Arranger) Snapshot() (*Instance, *Matching, error) {
	pairs := make([][2]int, 0)
	for i := range a.events {
		for _, j := range a.ConflictNeighbors(i) {
			if i < j {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	in, err := NewInstance(
		append([]Event(nil), a.events...),
		append([]User(nil), a.users...),
		conflict.FromPairs(len(a.events), pairs),
		a.simFn,
	)
	if err != nil {
		return nil, nil, err
	}
	return in, a.matching.Clone(), nil
}

// Rebalance re-solves the current snapshot with batch Greedy-GEACC and
// adopts the result if it improves MaxSum. It returns the improvement
// (0 when the incremental arrangement was already at least as good).
func (a *Arranger) Rebalance() (float64, error) {
	defer observeArrangerOp("rebalance", time.Now())
	in, _, err := a.Snapshot()
	if err != nil {
		return 0, err
	}
	fresh := Greedy(in)
	gain := fresh.MaxSum() - a.matching.MaxSum()
	if gain <= 0 {
		return 0, nil
	}
	a.matching = fresh
	a.recomputeRemaining()
	return gain, nil
}
