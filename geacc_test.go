package geacc

import (
	"errors"
	"math"
	"testing"
)

// table1Problem is the paper's TABLE I example through the public API.
func table1Problem(t *testing.T) *Problem {
	t.Helper()
	p, err := NewProblem(
		[]Event{{Cap: 5}, {Cap: 3}, {Cap: 2}},
		[]User{{Cap: 3}, {Cap: 1}, {Cap: 1}, {Cap: 2}, {Cap: 3}},
		WithSimilarityMatrix([][]float64{
			{0.93, 0.43, 0.84, 0.64, 0.65},
			{0, 0.35, 0.19, 0.21, 0.4},
			{0.86, 0.57, 0.78, 0.79, 0.68},
		}),
		WithConflictPairs([][2]int{{0, 2}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPublicAPITable1(t *testing.T) {
	p := table1Problem(t)
	want := map[Algorithm]float64{Exact: 4.39, Greedy: 4.28, MinCostFlow: 4.13}
	for algo, expected := range want {
		m, err := p.Solve(algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if err := p.Validate(m); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if math.Abs(m.MaxSum()-expected) > 1e-9 {
			t.Errorf("%v MaxSum = %v, want %v", algo, m.MaxSum(), expected)
		}
	}
	if ub := p.UpperBound(); math.Abs(ub-5.64) > 1e-9 {
		t.Errorf("UpperBound = %v, want 5.64", ub)
	}
}

func TestPublicAPIRandomBaselines(t *testing.T) {
	p := table1Problem(t)
	for _, algo := range []Algorithm{RandomV, RandomU} {
		a, err := p.SolveOpts(algo, SolveOptions{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(a); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		b, err := p.SolveOpts(algo, SolveOptions{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if a.MaxSum() != b.MaxSum() {
			t.Errorf("%v not deterministic for a fixed seed", algo)
		}
	}
}

func TestPublicAPIEuclideanProblem(t *testing.T) {
	p, err := NewProblem(
		[]Event{{Attrs: []float64{0, 0}, Cap: 2}, {Attrs: []float64{10, 10}, Cap: 1}},
		[]User{{Attrs: []float64{1, 1}, Cap: 1}, {Attrs: []float64{9, 9}, Cap: 1}},
		WithEuclideanSimilarity(2, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Solve(Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 2 {
		t.Fatalf("size = %d, want 2", m.Size())
	}
	if !m.Contains(0, 0) || !m.Contains(1, 1) {
		t.Errorf("pairs = %v", m.SortedPairs())
	}
	if p.Similarity(0, 0) <= p.Similarity(0, 1) {
		t.Error("similarity ordering wrong")
	}
}

func TestPublicAPIScheduleConflicts(t *testing.T) {
	// Bob's Sunday from the paper's introduction: hiking 8-12, badminton
	// 9-11, basketball 11:30-13:30 an hour away. All three conflict.
	schedules := []Schedule{
		{Start: 8, End: 12, X: 0, Y: 0},
		{Start: 9, End: 11, X: 5, Y: 0},
		{Start: 11.5, End: 13.5, X: 65, Y: 0},
	}
	p, err := NewProblem(
		[]Event{{Cap: 10}, {Cap: 10}, {Cap: 10}},
		[]User{{Cap: 3}}, // Bob would attend all three if he could
		WithSimilarityMatrix([][]float64{{0.9}, {0.8}, {0.7}}),
		WithSchedules(schedules, 60),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Conflicting(0, 1) || !p.Conflicting(1, 2) || !p.Conflicting(0, 2) {
		t.Fatal("schedule conflicts not derived")
	}
	m, err := p.Solve(Exact)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 1 || !m.Contains(0, 0) {
		t.Fatalf("Bob must attend exactly the hike: %v", m.SortedPairs())
	}
}

func TestPublicAPIConflictUnion(t *testing.T) {
	// Explicit pairs and schedule-derived conflicts combine.
	schedules := []Schedule{
		{Start: 0, End: 1}, {Start: 5, End: 6}, {Start: 5.5, End: 7},
	}
	p, err := NewProblem(
		[]Event{{Cap: 1}, {Cap: 1}, {Cap: 1}},
		[]User{{Cap: 3}},
		WithSimilarityMatrix([][]float64{{0.5}, {0.5}, {0.5}}),
		WithConflictPairs([][2]int{{0, 1}}),
		WithSchedules(schedules, 1000),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Conflicting(0, 1) {
		t.Error("explicit pair lost")
	}
	if !p.Conflicting(1, 2) {
		t.Error("derived overlap lost")
	}
	if p.Conflicting(0, 2) {
		t.Error("phantom conflict")
	}
}

func TestNewProblemErrors(t *testing.T) {
	events := []Event{{Cap: 1}}
	users := []User{{Cap: 1}}
	matrix := [][]float64{{0.5}}
	cases := map[string][]Option{
		"no similarity":   {},
		"two sims":        {WithSimilarityMatrix(matrix), WithEuclideanSimilarity(2, 1)},
		"bad euclid":      {WithEuclideanSimilarity(0, 1)},
		"nil func":        {WithSimilarityFunc(nil)},
		"conflict range":  {WithSimilarityMatrix(matrix), WithConflictPairs([][2]int{{0, 4}})},
		"schedule count":  {WithSimilarityMatrix(matrix), WithSchedules(nil, 10)},
		"schedule speed":  {WithSimilarityMatrix(matrix), WithSchedules([]Schedule{{Start: 0, End: 1}}, 0)},
		"bad matrix size": {WithSimilarityMatrix([][]float64{{0.5, 0.5}})},
	}
	for name, opts := range cases {
		if _, err := NewProblem(events, users, opts...); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestWithSchedulesNilIsCountError(t *testing.T) {
	// A nil schedule list with one event must fail the length check, not
	// silently mean "no conflicts".
	_, err := NewProblem(
		[]Event{{Cap: 1}}, []User{{Cap: 1}},
		WithSimilarityMatrix([][]float64{{0.5}}),
		WithSchedules(nil, 10),
	)
	if err == nil {
		t.Fatal("nil schedules accepted")
	}
}

func TestWithSimilarityFuncCustom(t *testing.T) {
	constHalf := func(a, b []float64) float64 { return 0.5 }
	p, err := NewProblem(
		[]Event{{Attrs: []float64{1}, Cap: 1}},
		[]User{{Attrs: []float64{2}, Cap: 1}},
		WithSimilarityFunc(constHalf),
	)
	if err != nil {
		t.Fatal(err)
	}
	if p.Similarity(0, 0) != 0.5 {
		t.Errorf("custom similarity = %v", p.Similarity(0, 0))
	}
}

func TestCosineSimilarityOption(t *testing.T) {
	p, err := NewProblem(
		[]Event{{Attrs: []float64{1, 0}, Cap: 1}},
		[]User{{Attrs: []float64{1, 0}, Cap: 1}, {Attrs: []float64{0, 1}, Cap: 1}},
		WithCosineSimilarity(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if p.Similarity(0, 0) != 1 || p.Similarity(0, 1) != 0 {
		t.Error("cosine similarity wrong")
	}
}

// TestArrangerRefusesOverflowingCosine: the dynamic arranger refuses
// cosine attributes whose norm product overflows, as NewProblem and the
// service's delta check do, instead of placing them with a NaN or zero
// similarity; the refused arrival leaves no trace, and the same shape with
// a scorable vector is arranged.
func TestArrangerRefusesOverflowingCosine(t *testing.T) {
	arr, err := NewArranger(CosineSimilarity())
	if err != nil {
		t.Fatal(err)
	}
	huge := []float64{1e200, 1e200}
	if _, err := arr.AddEvent(Event{Attrs: huge, Cap: 1}, nil); err == nil {
		t.Fatal("AddEvent accepted a cosine vector that overflows")
	}
	v, err := arr.AddEvent(Event{Attrs: []float64{1, 1}, Cap: 1}, nil)
	if err != nil || v != 0 {
		t.Fatalf("AddEvent after a refusal = %d, %v; want event 0", v, err)
	}
	if _, err := arr.AddUser(User{Attrs: huge, Cap: 1}); err == nil {
		t.Fatal("AddUser accepted a cosine vector that overflows")
	}
	u, err := arr.AddUser(User{Attrs: []float64{2, 2}, Cap: 1})
	if err != nil || u != 0 {
		t.Fatalf("AddUser after a refusal = %d, %v; want user 0", u, err)
	}
	if got := arr.UserEvents(u); len(got) != 1 || got[0] != v || arr.MaxSum() != 1 {
		t.Fatalf("user arranged to %v with max_sum %v; want [0] and 1", got, arr.MaxSum())
	}
}

func TestExactNodeLimitSurfaced(t *testing.T) {
	// A larger random-ish problem with a tiny budget must return
	// ErrBudgetExceeded and still hand back a feasible matching.
	events := make([]Event, 6)
	for i := range events {
		events[i] = Event{Cap: 3}
	}
	users := make([]User, 10)
	for i := range users {
		users[i] = User{Cap: 2}
	}
	matrix := make([][]float64, len(events))
	for v := range matrix {
		matrix[v] = make([]float64, len(users))
		for u := range matrix[v] {
			matrix[v][u] = float64((v*7+u*3)%10+1) / 10
		}
	}
	p, err := NewProblem(events, users, WithSimilarityMatrix(matrix))
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.SolveOpts(Exact, SolveOptions{ExactNodeLimit: 50})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if m == nil {
		t.Fatal("no best-effort matching returned")
	}
	if err := p.Validate(m); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	p := table1Problem(t)
	if _, err := p.Solve(Algorithm(99)); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if Algorithm(99).String() != "unknown" {
		t.Error("String for unknown algorithm")
	}
	names := map[Algorithm]string{
		Greedy: "greedy", MinCostFlow: "mincostflow", Exact: "exact",
		RandomV: "random-v", RandomU: "random-u",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
}

func TestProblemAccessors(t *testing.T) {
	p := table1Problem(t)
	if p.NumEvents() != 3 || p.NumUsers() != 5 {
		t.Error("sizes wrong")
	}
	if p.Similarity(0, 0) != 0.93 {
		t.Error("similarity wrong")
	}
	if !p.Conflicting(0, 2) || p.Conflicting(0, 1) {
		t.Error("conflicts wrong")
	}
}

// TestSolveOptsDecompose: every public algorithm gives a feasible matching
// through the decomposed path, and the exact MaxSum matches the monolithic
// exact solve (the instance's zero-similarity column for user 0 of event 1
// and its conflict edge give a nontrivial union graph).
func TestSolveOptsDecompose(t *testing.T) {
	p := table1Problem(t)
	wholeExact, err := p.Solve(Exact)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{Greedy, MinCostFlow, Exact, RandomV, RandomU} {
		m, err := p.SolveOpts(algo, SolveOptions{Decompose: true, Seed: 11})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if err := p.Validate(m); err != nil {
			t.Fatalf("%v: infeasible decomposed matching: %v", algo, err)
		}
		if algo == Exact && math.Abs(m.MaxSum()-wholeExact.MaxSum()) > 1e-9 {
			t.Errorf("decomposed exact MaxSum %v, want %v", m.MaxSum(), wholeExact.MaxSum())
		}
	}
	if _, err := p.SolveOpts(Algorithm(99), SolveOptions{Decompose: true}); err == nil {
		t.Error("unknown algorithm accepted under Decompose")
	}
}

// TestSolveOptsDecomposeNodeLimit: a tripped per-component exact budget
// surfaces ErrBudgetExceeded with a feasible best-so-far matching, matching
// the monolithic contract.
func TestSolveOptsDecomposeNodeLimit(t *testing.T) {
	p := table1Problem(t)
	m, err := p.SolveOpts(Exact, SolveOptions{Decompose: true, ExactNodeLimit: 1})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if m == nil {
		t.Fatal("no matching returned with the budget error")
	}
	if err := p.Validate(m); err != nil {
		t.Fatal(err)
	}
}
