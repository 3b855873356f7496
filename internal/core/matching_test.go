package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
)

func TestMatchingBasics(t *testing.T) {
	m := NewMatching()
	if m.Size() != 0 || m.MaxSum() != 0 {
		t.Fatal("new matching not empty")
	}
	m.Add(0, 1, 0.5)
	m.Add(2, 1, 0.25)
	m.Add(0, 3, 0.75)
	if m.Size() != 3 {
		t.Fatalf("Size = %d", m.Size())
	}
	if got := m.MaxSum(); got != 1.5 {
		t.Fatalf("MaxSum = %v", got)
	}
	if !m.Contains(0, 1) || m.Contains(1, 0) {
		t.Error("Contains wrong")
	}
	if got := m.UserEvents(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("UserEvents(1) = %v", got)
	}
	if got := m.EventUsers(0); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("EventUsers(0) = %v", got)
	}
	if got := m.UserEvents(99); got != nil {
		t.Errorf("unmatched user has events: %v", got)
	}
}

func TestMatchingDuplicateAddPanics(t *testing.T) {
	m := NewMatching()
	m.Add(1, 1, 0.5)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Add did not panic")
		}
	}()
	m.Add(1, 1, 0.5)
}

func TestMatchingSortedPairs(t *testing.T) {
	m := NewMatching()
	m.Add(2, 0, 0.1)
	m.Add(0, 1, 0.2)
	m.Add(0, 0, 0.3)
	got := m.SortedPairs()
	want := []Assignment{{0, 0, 0.3}, {0, 1, 0.2}, {2, 0, 0.1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedPairs = %v", got)
		}
	}
	// Insertion order must be preserved by Pairs.
	if m.Pairs()[0] != (Assignment{2, 0, 0.1}) {
		t.Error("Pairs lost insertion order")
	}
}

// TestAppendSortedPairsMatchesSort checks the counting pass against a
// comparison sort on random matchings: dense event ids with short and long
// (> 64 pair) runs, ids starting far from zero, and ids spread so wide that
// the count array would outgrow the pairs. Ids are non-negative, as Add
// requires. The pairs are appended after whatever dst already holds.
func TestAppendSortedPairsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	spreads := []int{1, 3, 40, 1 << 14}
	for trial := 0; trial < 400; trial++ {
		spread := spreads[trial%len(spreads)]
		lo := rng.Intn(5)
		if trial%7 == 0 {
			lo = 1 << 16
		}
		m := NewMatching()
		for i, n := 0, rng.Intn(300); i < n; i++ {
			v, u := lo+rng.Intn(spread), rng.Intn(200)
			if !m.Contains(v, u) {
				m.Add(v, u, rng.Float64())
			}
		}
		want := slices.Clone(m.Pairs())
		sort.Slice(want, func(i, j int) bool {
			if want[i].V != want[j].V {
				return want[i].V < want[j].V
			}
			return want[i].U < want[j].U
		})
		head := []Assignment{{V: -9, U: -9, Sim: 1}}
		got := m.AppendSortedPairs(slices.Clone(head))
		if !slices.Equal(got[:1], head) || !slices.Equal(got[1:], want) {
			t.Fatalf("trial %d (spread %d, lo %d): AppendSortedPairs differs from sort.Slice", trial, spread, lo)
		}
		if !slices.Equal(m.SortedPairs(), want) {
			t.Fatalf("trial %d: SortedPairs differs from sort.Slice", trial)
		}
	}
}

func TestMatchingClone(t *testing.T) {
	m := NewMatching()
	m.Add(0, 0, 0.9)
	c := m.Clone()
	c.Add(1, 1, 0.1)
	if m.Size() != 1 || c.Size() != 2 {
		t.Error("Clone shares state")
	}
	if c.MaxSum() != 1.0 {
		t.Errorf("clone MaxSum = %v", c.MaxSum())
	}
}

func validationInstance(t *testing.T) *Instance {
	t.Helper()
	in, err := NewMatrixInstance(
		[]Event{{Cap: 1}, {Cap: 2}, {Cap: 1}},
		[]User{{Cap: 2}, {Cap: 1}},
		conflict.FromPairs(3, [][2]int{{0, 1}}),
		[][]float64{{0.5, 0.0}, {0.6, 0.7}, {0.8, 0.9}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestValidateAcceptsFeasible(t *testing.T) {
	in := validationInstance(t)
	m := NewMatching()
	m.Add(0, 0, 0.5)
	m.Add(2, 0, 0.8)
	m.Add(1, 1, 0.7)
	if err := Validate(in, m); err != nil {
		t.Errorf("feasible matching rejected: %v", err)
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	in := validationInstance(t)
	m := NewMatching()
	m.Add(5, 0, 0.5)
	if Validate(in, m) == nil {
		t.Error("out-of-range pair accepted")
	}
}

func TestValidateRejectsWrongSim(t *testing.T) {
	in := validationInstance(t)
	m := NewMatching()
	m.Add(0, 0, 0.9) // instance says 0.5
	if Validate(in, m) == nil {
		t.Error("inconsistent similarity accepted")
	}
}

func TestValidateRejectsZeroSim(t *testing.T) {
	in := validationInstance(t)
	m := NewMatching()
	m.Add(0, 1, 0.0)
	if Validate(in, m) == nil {
		t.Error("zero-similarity pair accepted")
	}
}

func TestValidateRejectsEventOverCapacity(t *testing.T) {
	in := validationInstance(t)
	m := NewMatching()
	m.Add(0, 0, 0.5)
	// Event 0 has capacity 1; a second user would overflow. User 1 has
	// sim 0 with event 0, so craft via event 2 instead: user capacity test.
	m.Add(2, 0, 0.8)
	m.Add(1, 0, 0.6) // user 0 has cap 2 -> now 3 events
	if Validate(in, m) == nil {
		t.Error("user over capacity accepted")
	}
}

func TestValidateRejectsConflict(t *testing.T) {
	in := validationInstance(t)
	m := NewMatching()
	m.Add(0, 0, 0.5)
	m.Add(1, 0, 0.6) // events 0 and 1 conflict
	if Validate(in, m) == nil {
		t.Error("conflicting assignment accepted")
	}
}

func TestValidateEmptyMatching(t *testing.T) {
	in := validationInstance(t)
	if err := Validate(in, NewMatching()); err != nil {
		t.Errorf("empty matching rejected: %v", err)
	}
}

// mapMatching is the map-backed Matching the flat views replaced, kept as
// the model FuzzMatchingModel checks them against.
type mapMatching struct {
	pairs      []Assignment
	maxSum     float64
	userEvents map[int][]int
	eventUsers map[int][]int
}

func newMapMatching() *mapMatching {
	return &mapMatching{userEvents: make(map[int][]int), eventUsers: make(map[int][]int)}
}

func (m *mapMatching) add(v, u int, s float64) {
	m.pairs = append(m.pairs, Assignment{V: v, U: u, Sim: s})
	m.maxSum += s
	m.userEvents[u] = append(m.userEvents[u], v)
	m.eventUsers[v] = append(m.eventUsers[v], u)
}

func (m *mapMatching) contains(v, u int) bool { return slices.Contains(m.userEvents[u], v) }

// without rebuilds the matching from the pairs drop rejects, through add.
func (m *mapMatching) without(drop func(Assignment) bool) *mapMatching {
	out := newMapMatching()
	for _, p := range m.pairs {
		if !drop(p) {
			out.add(p.V, p.U, p.Sim)
		}
	}
	return out
}

func (m *mapMatching) sortedPairs() []Assignment {
	out := slices.Clone(m.pairs)
	sort.Slice(out, func(i, j int) bool {
		if out[i].V != out[j].V {
			return out[i].V < out[j].V
		}
		return out[i].U < out[j].U
	})
	return out
}

// sameAssignments compares pair lists with similarities bit for bit.
func sameAssignments(a, b []Assignment) bool {
	return slices.EqualFunc(a, b, func(p, q Assignment) bool {
		return p.V == q.V && p.U == q.U && math.Float64bits(p.Sim) == math.Float64bits(q.Sim)
	})
}

// FuzzMatchingModel runs random streams of Add, dropUser, dropEvent,
// dropPair, Clone and Reset against a Matching (sized up front or grown
// from empty, with views narrow enough to be re-carved) and the map-backed
// model. After every op both must hold the same pairs in insertion order,
// the same view for every node, the same Contains answers, MaxSum bit for
// bit and the same SortedPairs.
func FuzzMatchingModel(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{3, 5, 40, 0, 1, 2, 9, 0, 1, 3, 9, 0, 2, 2, 9, 1, 1, 0, 2, 0, 4, 0, 0, 5, 0, 0, 0, 7, 7, 9})
	f.Add([]byte{1, 1, 1, 0, 0, 0, 1, 0, 0, 1, 2, 0, 0, 2, 3, 0, 6, 0, 0, 0, 0, 3, 1, 0, 0, 4, 5})
	f.Add([]byte{2, 2, 2, 0, 200, 3, 7, 0, 3, 250, 8, 5, 0, 200, 0, 0, 3, 0, 0, 0, 1, 200, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		m := NewMatchingSized(next()%8, next()%8, next()%64)
		model := newMapMatching()
		for step := 0; len(ops) > 0; step++ {
			switch next() % 7 {
			case 0, 1, 2: // Add; ids past 15 make the views grow
				v, u := next()%20, next()%20
				if b := next(); b >= 200 {
					v += b
				}
				s := float64(next()) / 7
				if !model.contains(v, u) {
					m.Add(v, u, s)
					model.add(v, u, s)
				}
			case 3:
				u := next() % 24
				m.dropUser(u)
				model = model.without(func(p Assignment) bool { return p.U == u })
			case 4:
				v := next() % 24
				m.dropEvent(v)
				model = model.without(func(p Assignment) bool { return p.V == v })
			case 5:
				v, u := next()%20, next()%20
				m.dropPair(v, u)
				model = model.without(func(p Assignment) bool { return p.V == v && p.U == u })
			case 6:
				if next()%2 == 0 {
					c := m.Clone()
					m.Add(1000, 1000, 1) // the clone must not see it
					m = c
				} else {
					m.Reset()
					model = newMapMatching()
				}
			}
			if !sameAssignments(m.Pairs(), model.pairs) ||
				math.Float64bits(m.MaxSum()) != math.Float64bits(model.maxSum) ||
				m.Size() != len(model.pairs) {
				t.Fatalf("step %d: pairs %v (%v), model %v (%v)", step, m.Pairs(), m.MaxSum(), model.pairs, model.maxSum)
			}
			for id := 0; id < 520; id++ {
				if !slices.Equal(m.UserEvents(id), model.userEvents[id]) ||
					!slices.Equal(m.EventUsers(id), model.eventUsers[id]) {
					t.Fatalf("step %d: node %d views (%v, %v), model (%v, %v)", step, id,
						m.UserEvents(id), m.EventUsers(id), model.userEvents[id], model.eventUsers[id])
				}
				if m.Contains(id%20, id/20) != model.contains(id%20, id/20) {
					t.Fatalf("step %d: Contains(%d, %d) disagrees", step, id%20, id/20)
				}
			}
			if !sameAssignments(m.SortedPairs(), model.sortedPairs()) {
				t.Fatalf("step %d: SortedPairs %v, model %v", step, m.SortedPairs(), model.sortedPairs())
			}
		}
	})
}

// TestMatchingAddPanicsOnNegativeID: a negative id has no dense view.
func TestMatchingAddPanicsOnNegativeID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(-1, 0) did not panic")
		}
	}()
	NewMatching().Add(-1, 0, 0.5)
}
