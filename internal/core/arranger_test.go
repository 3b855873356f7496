package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/ebsnlab/geacc/internal/sim"
)

func newTestArranger(t *testing.T) *Arranger {
	t.Helper()
	a, err := NewArranger(sim.Euclidean(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestArrangerBasicFlow(t *testing.T) {
	a := newTestArranger(t)
	v0, err := a.AddEvent(Event{Attrs: sim.Vector{1, 1}, Cap: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	u0, err := a.AddUser(User{Attrs: sim.Vector{1, 2}, Cap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.UserEvents(u0); len(got) != 1 || got[0] != v0 {
		t.Fatalf("user not placed: %v", got)
	}
	if a.MaxSum() <= 0 {
		t.Fatal("MaxSum not positive")
	}
	in, m, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(in, m); err != nil {
		t.Fatal(err)
	}
}

func TestArrangerEventRecruitsExistingUsers(t *testing.T) {
	a := newTestArranger(t)
	// Two users waiting, then an event arrives with capacity 1: the closer
	// user must win.
	a.AddUser(User{Attrs: sim.Vector{5, 5}, Cap: 1})
	a.AddUser(User{Attrs: sim.Vector{2, 2}, Cap: 1})
	v, err := a.AddEvent(Event{Attrs: sim.Vector{2, 2}, Cap: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.UserEvents(1); len(got) != 1 || got[0] != v {
		t.Fatalf("nearest user not recruited: %v", got)
	}
	if got := a.UserEvents(0); len(got) != 0 {
		t.Fatalf("capacity exceeded: %v", got)
	}
}

func TestArrangerRespectsConflicts(t *testing.T) {
	a := newTestArranger(t)
	u, _ := a.AddUser(User{Attrs: sim.Vector{0, 0}, Cap: 5})
	v0, _ := a.AddEvent(Event{Attrs: sim.Vector{0, 1}, Cap: 1}, nil)
	// Second event conflicts with the first: the user is already in v0 and
	// must not join v1.
	v1, err := a.AddEvent(Event{Attrs: sim.Vector{1, 0}, Cap: 1}, []int{v0})
	if err != nil {
		t.Fatal(err)
	}
	events := a.UserEvents(u)
	if len(events) != 1 || events[0] != v0 {
		t.Fatalf("conflict violated: %v", events)
	}
	_ = v1
	in, m, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(in, m); err != nil {
		t.Fatal(err)
	}
}

func TestArrangerCancelEventReplacesUsers(t *testing.T) {
	a := newTestArranger(t)
	v0, _ := a.AddEvent(Event{Attrs: sim.Vector{1, 1}, Cap: 1}, nil)
	v1, _ := a.AddEvent(Event{Attrs: sim.Vector{1, 2}, Cap: 1}, nil)
	u, _ := a.AddUser(User{Attrs: sim.Vector{1, 1}, Cap: 1})
	if got := a.UserEvents(u); len(got) != 1 || got[0] != v0 {
		t.Fatalf("expected placement in v0: %v", got)
	}
	if err := a.CancelEvent(v0); err != nil {
		t.Fatal(err)
	}
	// The user must migrate to the surviving event.
	if got := a.UserEvents(u); len(got) != 1 || got[0] != v1 {
		t.Fatalf("user not re-placed after cancellation: %v", got)
	}
	// Cancelling again is harmless; unknown ids error.
	if err := a.CancelEvent(v0); err != nil {
		t.Fatal(err)
	}
	if err := a.CancelEvent(99); err == nil {
		t.Fatal("unknown event accepted")
	}
}

func TestArrangerRemoveUserRecruitsReplacement(t *testing.T) {
	a := newTestArranger(t)
	v, _ := a.AddEvent(Event{Attrs: sim.Vector{5, 5}, Cap: 1}, nil)
	// Closest user wins the single seat; a second user waits.
	u0, _ := a.AddUser(User{Attrs: sim.Vector{5, 5}, Cap: 1})
	u1, _ := a.AddUser(User{Attrs: sim.Vector{5, 6}, Cap: 1})
	if got := a.UserEvents(u0); len(got) != 1 {
		t.Fatalf("closest user not placed: %v", got)
	}
	if err := a.RemoveUser(u0); err != nil {
		t.Fatal(err)
	}
	// The freed seat goes to the waiting user.
	if got := a.UserEvents(u1); len(got) != 1 || got[0] != v {
		t.Fatalf("seat not re-filled: %v", got)
	}
	if len(a.UserEvents(u0)) != 0 {
		t.Fatal("removed user still arranged")
	}
	// Removing again is a no-op; unknown ids error.
	if err := a.RemoveUser(u0); err != nil {
		t.Fatal(err)
	}
	if err := a.RemoveUser(42); err == nil {
		t.Fatal("unknown user accepted")
	}
	in, m, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(in, m); err != nil {
		t.Fatal(err)
	}
}

func TestArrangerErrors(t *testing.T) {
	if _, err := NewArranger(nil); err == nil {
		t.Fatal("nil similarity accepted")
	}
	a := newTestArranger(t)
	if _, err := a.AddEvent(Event{Cap: -1}, nil); err == nil {
		t.Fatal("negative event capacity accepted")
	}
	if _, err := a.AddEvent(Event{Attrs: sim.Vector{0, 0}, Cap: 1}, []int{7}); err == nil {
		t.Fatal("conflict with unknown event accepted")
	}
	if _, err := a.AddUser(User{Cap: -1}); err == nil {
		t.Fatal("negative user capacity accepted")
	}
}

func TestArrangerAlwaysFeasibleProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, err := NewArranger(sim.Euclidean(2, 10))
		if err != nil {
			return false
		}
		vec := func() sim.Vector {
			return sim.Vector{rng.Float64() * 10, rng.Float64() * 10}
		}
		ops := 5 + rng.Intn(30)
		for i := 0; i < ops; i++ {
			switch rng.Intn(4) {
			case 0, 1:
				_, err = a.AddUser(User{Attrs: vec(), Cap: 1 + rng.Intn(3)})
			case 2:
				var cf []int
				for v := 0; v < a.NumEvents(); v++ {
					if rng.Float64() < 0.3 {
						cf = append(cf, v)
					}
				}
				_, err = a.AddEvent(Event{Attrs: vec(), Cap: 1 + rng.Intn(4)}, cf)
			case 3:
				if a.NumEvents() > 0 {
					err = a.CancelEvent(rng.Intn(a.NumEvents()))
				}
			}
			if err != nil {
				return false
			}
			in, m, err := a.Snapshot()
			if err != nil || Validate(in, m) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestArrangerRebalanceNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	a, err := NewArranger(sim.Euclidean(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	vec := func() sim.Vector {
		return sim.Vector{rng.Float64() * 10, rng.Float64() * 10}
	}
	// Adversarial arrival order: users first (matched to nothing), then
	// events with conflicts — incremental placement drifts from optimal.
	for i := 0; i < 30; i++ {
		a.AddUser(User{Attrs: vec(), Cap: 1 + rng.Intn(2)})
	}
	for i := 0; i < 8; i++ {
		var cf []int
		for v := 0; v < a.NumEvents(); v++ {
			if rng.Float64() < 0.4 {
				cf = append(cf, v)
			}
		}
		a.AddEvent(Event{Attrs: vec(), Cap: 1 + rng.Intn(5)}, cf)
	}
	before := a.MaxSum()
	gain, err := a.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if gain < 0 {
		t.Fatalf("negative gain %v", gain)
	}
	if a.MaxSum() < before-1e-9 {
		t.Fatalf("rebalance regressed: %v -> %v", before, a.MaxSum())
	}
	in, m, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(in, m); err != nil {
		t.Fatal(err)
	}
	// A second rebalance finds nothing new.
	gain2, err := a.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if gain2 != 0 {
		t.Fatalf("second rebalance gained %v", gain2)
	}
}

func TestArrangerTracksBatchGreedyClosely(t *testing.T) {
	// Online arrival should land near the batch greedy on friendly orders
	// (events first, then users — matching the greedy's own perspective).
	rng := rand.New(rand.NewSource(82))
	a, err := NewArranger(sim.Euclidean(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	vec := func() sim.Vector {
		return sim.Vector{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
	}
	for i := 0; i < 10; i++ {
		var cf []int
		for v := 0; v < a.NumEvents(); v++ {
			if rng.Float64() < 0.25 {
				cf = append(cf, v)
			}
		}
		a.AddEvent(Event{Attrs: vec(), Cap: 1 + rng.Intn(5)}, cf)
	}
	for i := 0; i < 50; i++ {
		a.AddUser(User{Attrs: vec(), Cap: 1 + rng.Intn(3)})
	}
	in, _, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	batch := Greedy(in).MaxSum()
	// Online arrival processes pairs in user order, not global similarity
	// order, so it loses ground — but it must stay in the same ballpark...
	if a.MaxSum() < 0.6*batch {
		t.Fatalf("online %v far below batch greedy %v", a.MaxSum(), batch)
	}
	// ...and a Rebalance must recover the full batch-greedy quality.
	if _, err := a.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if a.MaxSum() < batch-1e-9 {
		t.Fatalf("rebalance did not reach batch greedy: %v < %v", a.MaxSum(), batch)
	}
}

// TestArrangerSnapshotConflictsSorted: a snapshot's conflict adjacency is
// ascending for every event, however the conflicts arrived, and NumPairs
// counts the matching.
func TestArrangerSnapshotConflictsSorted(t *testing.T) {
	a := newTestArranger(t)
	rng := rand.New(rand.NewSource(5))
	for v := 0; v < 30; v++ {
		var cf []int
		for _, w := range rng.Perm(v) {
			if rng.Intn(3) == 0 {
				cf = append(cf, w)
			}
		}
		if _, err := a.AddEvent(Event{Attrs: sim.Vector{rng.Float64(), rng.Float64()}, Cap: 2}, cf); err != nil {
			t.Fatal(err)
		}
		if _, err := a.AddUser(User{Attrs: sim.Vector{rng.Float64(), rng.Float64()}, Cap: 2}); err != nil {
			t.Fatal(err)
		}
	}
	in, m, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for v := range in.Events {
		adj := in.Conflicts.Neighbors(v)
		if !sort.IntsAreSorted(adj) || !reflect.DeepEqual(adj, a.ConflictNeighbors(v)) {
			t.Fatalf("event %d: snapshot adjacency %v, arranger's %v", v, adj, a.ConflictNeighbors(v))
		}
	}
	if in.Conflicts.Edges() == 0 || a.NumPairs() != m.Size() || m.Size() == 0 {
		t.Fatalf("%d conflicts, NumPairs %d, matching %d", in.Conflicts.Edges(), a.NumPairs(), m.Size())
	}
}

// rebuildWithout is how RemoveUser and CancelEvent used to drop a node's
// pairs: a fresh matching built through Add from the pairs that stay, with
// the released seats handed back through release.
func rebuildWithout(m *Matching, drop func(Assignment) bool, release func(Assignment)) *Matching {
	rebuilt := NewMatching()
	for _, p := range m.Pairs() {
		if drop(p) {
			release(p)
			continue
		}
		rebuilt.Add(p.V, p.U, p.Sim)
	}
	return rebuilt
}

// sameViews reports whether a and b list the same users for every event and
// the same events for every user, in the same order, read through the
// arrangers' API.
func sameViews(a, b *Arranger) bool {
	for v := 0; v < max(a.NumEvents(), b.NumEvents()); v++ {
		if !slices.Equal(a.EventUsers(v), b.EventUsers(v)) {
			return false
		}
	}
	for u := 0; u < max(a.NumUsers(), b.NumUsers()); u++ {
		if !slices.Equal(a.UserEvents(u), b.UserEvents(u)) {
			return false
		}
	}
	return true
}

// TestArrangerDropMatchesRebuild drives two arrangers through the same
// random op streams (arrivals with conflicts, removals, cancellations,
// repeats included). One removes nodes through RemoveUser and CancelEvent,
// which drop pairs in place; the other through the old rebuild and the same
// re-placement. After every op both must hold the same pairs in the same
// order, MaxSum bit for bit, the same per-node views and the same remaining
// capacities.
func TestArrangerDropMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, ref := newTestArranger(t), newTestArranger(t)
		vec := func() sim.Vector { return sim.Vector{float64(rng.Intn(6)) * 2, rng.Float64() * 10} }
		for op := 0; op < 80; op++ {
			switch k := rng.Intn(6); {
			case k <= 1:
				u := User{Attrs: vec(), Cap: rng.Intn(4)}
				a.AddUser(u)
				ref.AddUser(u)
			case k == 2:
				var cf []int
				for v := 0; v < a.NumEvents(); v++ {
					if rng.Intn(3) == 0 {
						cf = append(cf, v)
					}
				}
				e := Event{Attrs: vec(), Cap: rng.Intn(6)}
				a.AddEvent(e, cf)
				ref.AddEvent(e, cf)
			case k == 3 || k == 4:
				if a.NumUsers() == 0 {
					continue
				}
				u := rng.Intn(a.NumUsers())
				if err := a.RemoveUser(u); err != nil {
					t.Fatal(err)
				}
				affected := append([]int(nil), ref.matching.UserEvents(u)...)
				ref.matching = rebuildWithout(ref.matching, func(p Assignment) bool { return p.U == u },
					func(p Assignment) { ref.remCapV[p.V]++ })
				ref.in.Users[u].Cap, ref.remCapU[u] = 0, 0
				for _, v := range affected {
					ref.place(v, true)
				}
			default:
				if a.NumEvents() == 0 {
					continue
				}
				v := rng.Intn(a.NumEvents())
				if err := a.CancelEvent(v); err != nil {
					t.Fatal(err)
				}
				affected := append([]int(nil), ref.matching.EventUsers(v)...)
				ref.matching = rebuildWithout(ref.matching, func(p Assignment) bool { return p.V == v },
					func(p Assignment) { ref.remCapU[p.U]++ })
				ref.in.Events[v].Cap, ref.remCapV[v] = 0, 0
				for _, u := range affected {
					ref.place(u, false)
				}
			}
			if !slices.Equal(a.matching.Pairs(), ref.matching.Pairs()) ||
				math.Float64bits(a.MaxSum()) != math.Float64bits(ref.MaxSum()) ||
				!sameViews(a, ref) ||
				!slices.Equal(a.remCapV, ref.remCapV) || !slices.Equal(a.remCapU, ref.remCapU) {
				t.Fatalf("seed %d op %d: in-place drop diverges from the rebuild:\n got %v (%v)\nwant %v (%v)",
					seed, op, a.matching.Pairs(), a.MaxSum(), ref.matching.Pairs(), ref.MaxSum())
			}
		}
	}
}
