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
// (> 64 pair) runs, negative ids, and ids spread so wide that the count
// array would outgrow the pairs. The pairs are appended after whatever dst
// already holds.
func TestAppendSortedPairsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	spreads := []int{1, 3, 40, 1 << 20}
	for trial := 0; trial < 400; trial++ {
		spread := spreads[trial%len(spreads)]
		lo := rng.Intn(5) - 2
		if trial%7 == 0 {
			lo = math.MinInt / 2
		}
		m := NewMatching()
		for i, n := 0, rng.Intn(300); i < n; i++ {
			v, u := lo+rng.Intn(spread), rng.Intn(200)-50
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
