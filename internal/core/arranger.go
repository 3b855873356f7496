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
// Its state is one growing Instance: events and users are appended, a
// cancel or remove zeroes a capacity, and the conflict graph grows with the
// events, each event's adjacency ascending. The instance has no kernels,
// so every similarity is the similarity function's own.
//
// All operations preserve feasibility (capacities, conflicts, positive
// similarity), which is re-checkable at any time via Snapshot + Validate.
type Arranger struct {
	in      *Instance
	remCapV []int
	remCapU []int

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
		in:       &Instance{Conflicts: conflict.New(0), SimFunc: f},
		matching: NewMatching(),
	}, nil
}

// RestoreArranger rebuilds an arranger from a Snapshot pair: the inverse
// used by the persistent instance store (internal/store) to resume a
// long-lived arrangement after a restart. The instance must be a vector
// instance (SimFunc != nil) — matrix instances cannot grow online — and m
// must be feasible for it. The restored arranger reproduces the donor's
// behavior exactly: events, users, conflicts, the matching (in m's
// insertion order, so MaxSum keeps its accumulation order), and the
// remaining capacities derived from caps minus matched load. It copies in,
// its conflicts rebuilt from their sorted pairs so every adjacency is
// ascending.
func RestoreArranger(in *Instance, m *Matching) (*Arranger, error) {
	if in.SimFunc == nil {
		return nil, fmt.Errorf("core: restore needs a vector instance (matrix instances cannot grow online)")
	}
	if err := Validate(in, m); err != nil {
		return nil, fmt.Errorf("core: restore snapshot is infeasible: %w", err)
	}
	var pairs [][2]int
	if in.Conflicts != nil {
		pairs = in.Conflicts.Pairs()
	}
	a := &Arranger{
		in: &Instance{
			Events:    append([]Event(nil), in.Events...),
			Users:     append([]User(nil), in.Users...),
			Conflicts: conflict.FromPairs(len(in.Events), pairs),
			SimFunc:   in.SimFunc,
		},
		matching: m.Clone(),
	}
	a.recomputeRemaining()
	return a, nil
}

// recomputeRemaining rederives the remaining capacities from the declared
// caps minus the current matching's load.
func (a *Arranger) recomputeRemaining() {
	nv, nu := len(a.in.Events), len(a.in.Users)
	a.remCapV = slices.Grow(a.remCapV[:0], nv)[:nv]
	for v, e := range a.in.Events {
		a.remCapV[v] = e.Cap - len(a.matching.EventUsers(v))
	}
	a.remCapU = slices.Grow(a.remCapU[:0], nu)[:nu]
	for u, x := range a.in.Users {
		a.remCapU[u] = x.Cap - len(a.matching.UserEvents(u))
	}
}

// SetMatching replaces the current arrangement with m. It is the one
// adoption path: the service's component-scoped rebalance, the restore
// after a failed log append and WAL replay all take it. m is checked
// against the arranger's own instance, with no snapshot, before anything
// changes: every pair in range, sim > 0 and equal to the similarity
// function's value, no node over capacity, no user in two conflicting
// events. Attributes never change, so a pair the current matching holds
// with the same bits was scored when it was adopted and is not scored
// again; a rebalance re-scores only the components it replaced. On success
// the arranger takes ownership of m (the caller must not use it
// afterwards), rederives the remaining capacities and hands back the
// matching it replaced, which it no longer references: a ready restore
// point.
func (a *Arranger) SetMatching(m *Matching) (*Matching, error) {
	cur := a.matching
	a.simOff, a.simBuf = cur.userSims(a.simOff, a.simBuf)
	err := m.check(a.in, func(p Assignment) float64 {
		if p.U < len(cur.userEvents) {
			if k := slices.Index(cur.userEvents[p.U], p.V); k >= 0 &&
				math.Float64bits(a.simBuf[a.simOff[p.U]+k]) == math.Float64bits(p.Sim) {
				return p.Sim
			}
		}
		return a.in.Similarity(p.V, p.U)
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
func (a *Arranger) NumEvents() int { return len(a.in.Events) }

// NumUsers returns the number of users added.
func (a *Arranger) NumUsers() int { return len(a.in.Users) }

// NumPairs returns the number of pairs in the current arrangement.
func (a *Arranger) NumPairs() int { return a.matching.Size() }

// Pairs returns the current arrangement's pairs in insertion order without
// copying them. The slice is the matching's own: read it only while no
// operation runs, and never write it.
func (a *Arranger) Pairs() []Assignment { return a.matching.Pairs() }

// Instance returns the arranger's own instance: every event and user ever
// added (cancelled and removed ones keep capacity zero), the conflict graph
// with ascending adjacency, and the similarity function, with no kernels.
// Read it only while no operation runs, and never write it.
func (a *Arranger) Instance() *Instance { return a.in }

// Events returns the arranger's events, indexed by id (cancelled ones keep
// capacity zero), under the terms of Instance.
func (a *Arranger) Events() []Event { return a.in.Events }

// Users returns the arranger's users, indexed by id, under the same terms.
func (a *Arranger) Users() []User { return a.in.Users }

// SimFunc returns the similarity function the arranger was built with.
func (a *Arranger) SimFunc() sim.Func { return a.in.SimFunc }

// ConflictNeighbors returns the events conflicting with event v, ascending,
// in a fresh slice.
func (a *Arranger) ConflictNeighbors(v int) []int {
	ns := a.in.Conflicts.Neighbors(v)
	return append(make([]int, 0, len(ns)), ns...)
}

// MaxSum returns the current arrangement's objective.
func (a *Arranger) MaxSum() float64 { return a.matching.MaxSum() }

// Matching returns a copy of the current arrangement.
func (a *Arranger) Matching() *Matching { return a.matching.Clone() }

// UserEvents returns the events user u currently attends.
func (a *Arranger) UserEvents(u int) []int { return a.matching.UserEvents(u) }

// EventUsers returns the users currently arranged to event v.
func (a *Arranger) EventUsers(v int) []int { return a.matching.EventUsers(v) }

// AddEvent registers a new event, declares its conflicts with existing
// events, and greedily recruits the most interested users with spare
// capacity. It returns the event's id. Attributes the similarity cannot
// score (sim.CheckVectors) are refused, as are a negative capacity and a
// conflict with an unknown event. The conflicts are added in ascending
// order, and the new id is above every other, so every adjacency list
// stays ascending.
func (a *Arranger) AddEvent(e Event, conflictsWith []int) (int, error) {
	defer observeArrangerOp("add_event", time.Now())
	if e.Cap < 0 {
		return 0, fmt.Errorf("core: negative event capacity %d", e.Cap)
	}
	if _, err := sim.CheckVectors(a.in.SimFunc, []sim.Vector{e.Attrs}); err != nil {
		return 0, fmt.Errorf("core: event: %w", err)
	}
	v := len(a.in.Events)
	for _, w := range conflictsWith {
		if w < 0 || w >= v {
			return 0, fmt.Errorf("core: conflict with unknown event %d", w)
		}
	}
	a.in.Events = append(a.in.Events, e)
	a.in.Conflicts.Grow()
	a.remCapV = append(a.remCapV, e.Cap)
	ws := slices.Clone(conflictsWith)
	slices.Sort(ws)
	for _, w := range ws {
		a.in.Conflicts.Add(v, w)
	}
	a.place(v, true)
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
	if _, err := sim.CheckVectors(a.in.SimFunc, []sim.Vector{u.Attrs}); err != nil {
		return 0, fmt.Errorf("core: user: %w", err)
	}
	id := len(a.in.Users)
	a.in.Users = append(a.in.Users, u)
	a.remCapU = append(a.remCapU, u.Cap)
	a.place(id, false)
	return id, nil
}

// RemoveUser withdraws a user from the platform: their assignments are
// released (freeing event seats) and the affected events greedily recruit
// replacements. Removing twice is a no-op.
func (a *Arranger) RemoveUser(u int) error {
	defer observeArrangerOp("remove_user", time.Now())
	if u < 0 || u >= len(a.in.Users) {
		return fmt.Errorf("core: unknown user %d", u)
	}
	affected := append([]int(nil), a.matching.UserEvents(u)...)
	for _, v := range affected {
		a.remCapV[v]++
	}
	a.matching.dropUser(u)
	if a.in.Users[u].Cap > 0 && u < a.union.nu {
		a.union.loosen(a.union.userNode[u])
	}
	a.in.Users[u].Cap = 0
	a.remCapU[u] = 0
	for _, v := range affected {
		a.place(v, true)
	}
	return nil
}

// CancelEvent removes an event: its assignments are released and every
// affected user is greedily re-placed. Cancelling twice is a no-op.
func (a *Arranger) CancelEvent(v int) error {
	defer observeArrangerOp("cancel_event", time.Now())
	if v < 0 || v >= len(a.in.Events) {
		return fmt.Errorf("core: unknown event %d", v)
	}
	affected := append([]int(nil), a.matching.EventUsers(v)...)
	for _, u := range affected {
		a.remCapU[u]++
	}
	a.matching.dropEvent(v)
	if a.in.Events[v].Cap > 0 && v < a.union.nv {
		a.union.loosen(a.union.eventNode[v])
	}
	a.in.Events[v].Cap = 0
	a.remCapV[v] = 0
	for _, u := range affected {
		a.place(u, false)
	}
	return nil
}

// place fills node x with its most interested feasible partners: event x
// recruits users when event is set, user x joins events otherwise.
// Candidates are the partners with spare capacity and sim > 0 not yet
// paired with x, taken by similarity descending, then id ascending.
func (a *Arranger) place(x int, event bool) {
	self, other := a.remCapU, a.remCapV
	if event {
		self, other = a.remCapV, a.remCapU
	}
	pair := func(y int) (v, u int) {
		if event {
			return x, y
		}
		return y, x
	}
	type cand struct {
		y int
		s float64
	}
	var cands []cand
	for y, c := range other {
		v, u := pair(y)
		if c == 0 || a.matching.Contains(v, u) {
			continue
		}
		if s := a.in.Similarity(v, u); s > 0 {
			cands = append(cands, cand{y, s})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].s != cands[j].s {
			return cands[i].s > cands[j].s
		}
		return cands[i].y < cands[j].y
	})
	for _, c := range cands {
		if self[x] == 0 {
			return
		}
		v, u := pair(c.y)
		if other[c.y] == 0 || a.in.Conflicts.ConflictsWithAny(v, a.matching.UserEvents(u)) {
			continue
		}
		a.matching.Add(v, u, c.s)
		self[x]--
		other[c.y]--
	}
}

// Snapshot freezes the current state into a static Instance (cancelled
// events keep capacity zero) paired with the current matching, so callers
// can Validate, serialize, or solve it from scratch. It copies the
// arranger's instance, with kernels; the conflict graph is built from its
// pairs sorted by (i, j), so every event's adjacency is ascending and equal
// snapshots are equal down to adjacency order.
func (a *Arranger) Snapshot() (*Instance, *Matching, error) {
	in, err := NewInstance(
		append([]Event(nil), a.in.Events...),
		append([]User(nil), a.in.Users...),
		conflict.FromPairs(len(a.in.Events), a.in.Conflicts.Pairs()),
		a.in.SimFunc,
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
