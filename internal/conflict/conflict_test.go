package conflict

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestGraphAddAndLookup(t *testing.T) {
	g := New(4)
	g.Add(0, 2)
	g.Add(3, 1)
	cases := []struct {
		i, j int
		want bool
	}{
		{0, 2, true}, {2, 0, true},
		{1, 3, true}, {3, 1, true},
		{0, 1, false}, {0, 3, false}, {1, 2, false}, {2, 3, false},
		{0, 0, false}, {2, 2, false},
	}
	for _, c := range cases {
		if got := g.Conflicting(c.i, c.j); got != c.want {
			t.Errorf("Conflicting(%d, %d) = %v, want %v", c.i, c.j, got, c.want)
		}
	}
	if g.Edges() != 2 {
		t.Errorf("Edges = %d, want 2", g.Edges())
	}
}

func TestGraphIgnoresSelfAndDuplicate(t *testing.T) {
	g := New(3)
	g.Add(1, 1)
	if g.Edges() != 0 {
		t.Error("self-pair added")
	}
	g.Add(0, 1)
	g.Add(1, 0)
	g.Add(0, 1)
	if g.Edges() != 1 {
		t.Errorf("duplicate pairs counted: Edges = %d", g.Edges())
	}
	if len(g.Neighbors(0)) != 1 || len(g.Neighbors(1)) != 1 {
		t.Error("duplicate pairs appended to adjacency lists")
	}
}

func TestGraphAddOutOfRangePanics(t *testing.T) {
	g := New(2)
	for _, p := range [][2]int{{-1, 0}, {0, 2}, {5, 5}} {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d, %d) did not panic", p[0], p[1])
				}
			}()
			g.Add(p[0], p[1])
		}()
	}
}

func TestGraphNeighborsAndConflictsWithAny(t *testing.T) {
	g := New(5)
	g.Add(0, 1)
	g.Add(0, 3)
	ns := g.Neighbors(0)
	if len(ns) != 2 {
		t.Fatalf("Neighbors(0) = %v", ns)
	}
	if !g.ConflictsWithAny(1, []int{2, 0}) {
		t.Error("ConflictsWithAny missed a conflict")
	}
	if g.ConflictsWithAny(1, []int{2, 4}) {
		t.Error("ConflictsWithAny false positive")
	}
	if g.ConflictsWithAny(0, nil) {
		t.Error("empty set cannot conflict")
	}
}

func TestGraphPairsSortedAndComplete(t *testing.T) {
	g := New(4)
	g.Add(3, 2)
	g.Add(1, 0)
	g.Add(0, 3)
	got := g.Pairs()
	want := [][2]int{{0, 1}, {0, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("Pairs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pairs = %v, want %v", got, want)
		}
	}
}

// TestGraphPairsMatchesScan compares Pairs on random graphs, built in
// random insertion order, with a scan of every i < j through Conflicting.
func TestGraphPairsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		g := New(n)
		for k := rng.Intn(n * n); k > 0; k-- {
			if i, j := rng.Intn(n), rng.Intn(n); i != j {
				g.Add(i, j)
			}
		}
		var want [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if g.Conflicting(i, j) {
					want = append(want, [2]int{i, j})
				}
			}
		}
		if got := g.Pairs(); !slices.Equal(got, want) {
			t.Fatalf("n=%d: Pairs = %v, scan %v", n, got, want)
		}
	}
}

func TestFromPairsRoundTrip(t *testing.T) {
	pairs := [][2]int{{0, 2}, {1, 3}, {2, 4}}
	g := FromPairs(5, pairs)
	got := g.Pairs()
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range pairs {
		if got[i] != pairs[i] {
			t.Fatalf("round trip mismatch: %v vs %v", got, pairs)
		}
	}
}

func TestRandomDensityTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ratio := range []float64{0, 0.25, 0.5, 0.75, 1} {
		g := Random(rng, 20, ratio)
		wantEdges := int(ratio*190 + 0.5)
		if g.Edges() != wantEdges {
			t.Errorf("ratio %v: %d edges, want %d", ratio, g.Edges(), wantEdges)
		}
	}
}

func TestRandomFullGraphEveryPairConflicts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := Random(rng, 10, 1)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if i != j && !g.Conflicting(i, j) {
				t.Fatalf("pair (%d,%d) missing from complete conflict graph", i, j)
			}
		}
	}
}

func TestRandomBadRatioPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, r := range []float64{-0.1, 1.1} {
		r := r
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ratio %v did not panic", r)
				}
			}()
			Random(rng, 5, r)
		}()
	}
}

func TestGraphSymmetryProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := Random(rng, n, rng.Float64())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if g.Conflicting(i, j) != g.Conflicting(j, i) {
					return false
				}
			}
			if g.Conflicting(i, i) {
				return false
			}
		}
		// Adjacency lists must agree with the bitset.
		edges := 0
		for i := 0; i < n; i++ {
			for _, j := range g.Neighbors(i) {
				if !g.Conflicting(i, j) {
					return false
				}
				edges++
			}
		}
		return edges == 2*g.Edges()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestScheduleOverlaps(t *testing.T) {
	a := Schedule{Start: 8, End: 12}
	cases := []struct {
		b    Schedule
		want bool
	}{
		{Schedule{Start: 9, End: 11}, true},   // nested
		{Schedule{Start: 11, End: 13}, true},  // partial
		{Schedule{Start: 12, End: 14}, false}, // back-to-back
		{Schedule{Start: 13, End: 15}, false}, // disjoint
		{Schedule{Start: 6, End: 8}, false},   // back-to-back before
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("Overlaps(%+v) = %v, want %v", c.b, got, c.want)
		}
		if a.Overlaps(c.b) != c.b.Overlaps(a) {
			t.Errorf("Overlaps not symmetric for %+v", c.b)
		}
	}
}

func TestScheduleConflictsWithTravel(t *testing.T) {
	// The paper's motivating scenario: badminton 9:00-11:00, basketball
	// 11:30-13:30 at a venue one hour away. Gap = 0.5h < 1h travel.
	badminton := Schedule{Start: 9, End: 11, X: 0, Y: 0}
	basketball := Schedule{Start: 11.5, End: 13.5, X: 60, Y: 0} // 60 km away
	speed := 60.0                                               // km/h -> 1h travel
	if !badminton.ConflictsWith(basketball, speed) {
		t.Error("tight travel window must conflict")
	}
	if !basketball.ConflictsWith(badminton, speed) {
		t.Error("travel conflict must be symmetric")
	}
	// With a faster car (gap 0.5h >= 0.4h travel) the conflict disappears.
	if badminton.ConflictsWith(basketball, 150) {
		t.Error("fast travel should not conflict")
	}
}

func TestScheduleValidate(t *testing.T) {
	if err := (Schedule{Start: 1, End: 2}).Validate(); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	if err := (Schedule{Start: 2, End: 1}).Validate(); err == nil {
		t.Error("inverted interval accepted")
	}
}

func TestFromSchedulesMotivatingExample(t *testing.T) {
	// Hiking 8-12, badminton 9-11 (same area), basketball 11.5-13.5 one
	// hour away from badminton. All three mutually conflict, matching the
	// introduction's story where Bob can attend at most one.
	schedules := []Schedule{
		{Start: 8, End: 12, X: 0, Y: 0},       // hiking
		{Start: 9, End: 11, X: 5, Y: 0},       // badminton
		{Start: 11.5, End: 13.5, X: 65, Y: 0}, // basketball
	}
	g, err := FromSchedules(schedules, 60)
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 3 {
		t.Fatalf("want a triangle of conflicts, got %v", g.Pairs())
	}
}

func TestFromSchedulesErrors(t *testing.T) {
	if _, err := FromSchedules([]Schedule{{Start: 0, End: 1}}, 0); err == nil {
		t.Error("zero speed accepted")
	}
	if _, err := FromSchedules([]Schedule{{Start: 2, End: 1}}, 1); err == nil {
		t.Error("invalid schedule accepted")
	}
}

func TestFromSchedulesDisjointNoConflicts(t *testing.T) {
	schedules := []Schedule{
		{Start: 0, End: 1, X: 0, Y: 0},
		{Start: 2, End: 3, X: 0, Y: 0},
		{Start: 4, End: 5, X: 0, Y: 0},
	}
	g, err := FromSchedules(schedules, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 0 {
		t.Fatalf("unexpected conflicts: %v", g.Pairs())
	}
}

func TestGraphN(t *testing.T) {
	if New(7).N() != 7 {
		t.Error("N wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative size accepted")
		}
	}()
	New(-1)
}

// TestFromPairsMatchesAdd checks the two-pass FromPairs against the Add loop
// it replaced on random pair lists with self-pairs, repeats and reversed
// repeats: the same edge count, lookups and neighbor lists in the same
// order. A later Add must extend a list without touching its neighbor's.
func TestFromPairsMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(30)
		pairs := make([][2]int, rng.Intn(4*n))
		for k := range pairs {
			pairs[k] = [2]int{rng.Intn(n), rng.Intn(n)}
			if k > 0 && rng.Intn(5) == 0 {
				q := pairs[rng.Intn(k)]
				pairs[k] = [2]int{q[1], q[0]}
			}
		}
		want := New(n)
		for _, p := range pairs {
			want.Add(p[0], p[1])
		}
		got := FromPairs(n, pairs)
		same := func(stage string) {
			if got.Edges() != want.Edges() {
				t.Fatalf("trial %d %s: %d edges, want %d", trial, stage, got.Edges(), want.Edges())
			}
			for i := 0; i < n; i++ {
				if !slices.Equal(got.Neighbors(i), want.Neighbors(i)) {
					t.Fatalf("trial %d %s: Neighbors(%d) = %v, want %v", trial, stage, i, got.Neighbors(i), want.Neighbors(i))
				}
				for j := 0; j < n; j++ {
					if got.Conflicting(i, j) != want.Conflicting(i, j) {
						t.Fatalf("trial %d %s: Conflicting(%d, %d) differs", trial, stage, i, j)
					}
				}
			}
		}
		same("built")
		for k := 0; k < 3; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			got.Add(i, j)
			want.Add(i, j)
		}
		same("extended")
	}
}

// FuzzGraphGrow interleaves Grow and Add, from a graph of n0 events,
// against a naive model: a set of pairs and insertion-ordered neighbor
// lists. After every op Conflicting, Neighbors, Edges and Pairs must match
// the model, and at the end the grown graph must hold the same relation as
// FromPairs of its own pairs. An op byte b with b%4 == 0 grows the graph;
// any other adds the pair (b/4, next byte), both taken mod N.
//
// Run it with: go test -run '^$' -fuzz FuzzGraphGrow -fuzztime 20s ./internal/conflict
func FuzzGraphGrow(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 5, 1, 0, 9, 2, 0, 0, 0, 13, 7, 6, 3})
	f.Add(uint8(3), []byte{1, 2, 0, 5, 2, 9, 0, 0, 0, 0, 0, 17, 5, 2, 4})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 7, 5, 3, 9, 1})
	f.Fuzz(func(t *testing.T, n0 uint8, ops []byte) {
		n := int(n0 % 8)
		if len(ops) > 300 {
			ops = ops[:300]
		}
		g := New(n)
		adj := make([][]int, n)
		set := map[[2]int]bool{}
		for k := 0; k < len(ops); k++ {
			if b := ops[k]; b%4 == 0 || n == 0 || k+1 == len(ops) {
				g.Grow()
				adj = append(adj, nil)
				n++
			} else {
				k++
				i, j := int(b/4)%n, int(ops[k])%n
				g.Add(i, j)
				if i != j && !set[[2]int{min(i, j), max(i, j)}] {
					set[[2]int{min(i, j), max(i, j)}] = true
					adj[i] = append(adj[i], j)
					adj[j] = append(adj[j], i)
				}
			}
			if g.N() != n || g.Edges() != len(set) {
				t.Fatalf("op %d: N %d, Edges %d; model %d, %d", k, g.N(), g.Edges(), n, len(set))
			}
			for i := 0; i < n; i++ {
				if !slices.Equal(g.Neighbors(i), adj[i]) {
					t.Fatalf("op %d: Neighbors(%d) = %v, model %v", k, i, g.Neighbors(i), adj[i])
				}
				for j := 0; j < n; j++ {
					if g.Conflicting(i, j) != set[[2]int{min(i, j), max(i, j)}] {
						t.Fatalf("op %d: Conflicting(%d, %d) = %v", k, i, j, g.Conflicting(i, j))
					}
				}
			}
		}
		pairs := make([][2]int, 0, len(set))
		for p := range set {
			pairs = append(pairs, p)
		}
		slices.SortFunc(pairs, func(a, b [2]int) int {
			if a[0] != b[0] {
				return a[0] - b[0]
			}
			return a[1] - b[1]
		})
		if got := g.Pairs(); !slices.Equal(got, pairs) {
			t.Fatalf("Pairs = %v, model %v", got, pairs)
		}
		h := FromPairs(n, g.Pairs())
		if h.N() != g.N() || h.Edges() != g.Edges() || !slices.Equal(h.Pairs(), g.Pairs()) {
			t.Fatalf("FromPairs of the grown graph: N %d, Edges %d; grown %d, %d", h.N(), h.Edges(), g.N(), g.Edges())
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if h.Conflicting(i, j) != g.Conflicting(i, j) {
					t.Fatalf("FromPairs of the grown graph: Conflicting(%d, %d) differs", i, j)
				}
			}
		}
	})
}
