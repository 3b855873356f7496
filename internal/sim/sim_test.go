package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEuclideanKnownValues(t *testing.T) {
	f := Euclidean(2, 10)
	cases := []struct {
		a, b Vector
		want float64
	}{
		{Vector{0, 0}, Vector{0, 0}, 1},
		{Vector{0, 0}, Vector{10, 10}, 0},
		{Vector{3, 4}, Vector{3, 4}, 1},
		{Vector{0, 0}, Vector{10, 0}, 1 - 10/math.Sqrt(200)},
	}
	for _, c := range cases {
		got := f(c.a, c.b)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Euclidean(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEuclideanRange(t *testing.T) {
	const d, maxT = 5, 100.0
	f := Euclidean(d, maxT)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b := randVec(rng, d, maxT), randVec(rng, d, maxT)
		s := f(a, b)
		if s < 0 || s > 1 {
			t.Fatalf("similarity %v out of [0,1] for %v, %v", s, a, b)
		}
	}
}

func TestEuclideanSymmetry(t *testing.T) {
	const d, maxT = 4, 50.0
	f := Euclidean(d, maxT)
	rng := rand.New(rand.NewSource(2))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVec(r, d, maxT), randVec(r, d, maxT)
		return f(a, b) == f(b, a)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestEuclideanIdentity(t *testing.T) {
	f := Euclidean(3, 10)
	v := Vector{1, 2, 3}
	if got := f(v, v); got != 1 {
		t.Errorf("self-similarity = %v, want 1", got)
	}
}

func TestEuclideanMonotoneInDistance(t *testing.T) {
	f := Euclidean(1, 10)
	origin := Vector{0}
	prev := 2.0
	for x := 0.0; x <= 10; x++ {
		s := f(origin, Vector{x})
		if s >= prev {
			t.Fatalf("similarity not strictly decreasing at x=%v: %v >= %v", x, s, prev)
		}
		prev = s
	}
}

func TestEuclideanPanicsOnBadParams(t *testing.T) {
	assertPanics(t, func() { Euclidean(0, 10) })
	assertPanics(t, func() { Euclidean(3, 0) })
	assertPanics(t, func() { Manhattan(0, 10) })
	assertPanics(t, func() { Manhattan(3, -1) })
}

func TestDistanceDimensionMismatchPanics(t *testing.T) {
	assertPanics(t, func() { Distance(Vector{1}, Vector{1, 2}) })
	assertPanics(t, func() { Cosine()(Vector{1}, Vector{1, 2}) })
	assertPanics(t, func() { Manhattan(2, 1)(Vector{1}, Vector{1, 2}) })
}

func TestCosine(t *testing.T) {
	f := Cosine()
	cases := []struct {
		a, b Vector
		want float64
	}{
		{Vector{1, 0}, Vector{0, 1}, 0},
		{Vector{1, 0}, Vector{1, 0}, 1},
		{Vector{1, 1}, Vector{2, 2}, 1},
		{Vector{0, 0}, Vector{1, 1}, 0},
		{Vector{0, 0}, Vector{0, 0}, 0},
		{Vector{1, 0}, Vector{1, 1}, 1 / math.Sqrt2},
	}
	for _, c := range cases {
		got := f(c.a, c.b)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Cosine(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestManhattan(t *testing.T) {
	f := Manhattan(2, 10)
	if got := f(Vector{0, 0}, Vector{10, 10}); got != 0 {
		t.Errorf("max-distance similarity = %v, want 0", got)
	}
	if got := f(Vector{3, 7}, Vector{3, 7}); got != 1 {
		t.Errorf("self-similarity = %v, want 1", got)
	}
	if got, want := f(Vector{0, 0}, Vector{5, 5}), 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("half-distance similarity = %v, want %v", got, want)
	}
}

func TestAllFuncsInUnitRangeProperty(t *testing.T) {
	const d, maxT = 6, 1000.0
	funcs := map[string]Func{
		"euclidean": Euclidean(d, maxT),
		"cosine":    Cosine(),
		"manhattan": Manhattan(d, maxT),
	}
	rng := rand.New(rand.NewSource(3))
	for name, f := range funcs {
		for i := 0; i < 500; i++ {
			a, b := randVec(rng, d, maxT), randVec(rng, d, maxT)
			s := f(a, b)
			if s < 0 || s > 1 || math.IsNaN(s) {
				t.Fatalf("%s(%v, %v) = %v out of range", name, a, b, s)
			}
			if f(a, b) != f(b, a) {
				t.Fatalf("%s not symmetric on %v, %v", name, a, b)
			}
		}
	}
}

// TestCheckVectors: cosine refuses a vector whose squared norm reaches
// √MaxFloat64 (where the norm product overflows), or holds NaN or ±Inf;
// the other functions accept any vector.
func TestCheckVectors(t *testing.T) {
	ok := []Vector{{0, 5, 10}, {-1e70, 1e70, 0}, {}}
	bad := []Vector{{1e200, 1e200}, {1e78, 0}, {math.NaN()}, {math.Inf(-1)}}
	if i, err := CheckVectors(Cosine(), ok); err != nil {
		t.Errorf("cosine refused vector %d: %v", i, err)
	}
	for k, v := range bad {
		if i, err := CheckVectors(Cosine(), append(slices.Clone(ok), v)); err == nil || i != len(ok) {
			t.Errorf("cosine accepted bad vector %d %v (index %d, err %v)", k, v, i, err)
		}
	}
	// Just below the bound the norm product stays finite.
	edge := Vector{math.Sqrt(maxCosineSqNorm) * 0.999}
	if _, err := CheckVectors(Cosine(), []Vector{edge}); err != nil {
		t.Errorf("cosine refused %v: %v", edge, err)
	}
	if s := Cosine()(edge, edge); !(math.Abs(s-1) < 1e-12) {
		t.Errorf("cosine(edge, edge) = %v, want 1", s)
	}
	for name, f := range map[string]Func{"euclidean": Euclidean(2, 10), "manhattan": Manhattan(2, 10)} {
		if i, err := CheckVectors(f, bad); err != nil {
			t.Errorf("%s refused vector %d: %v", name, i, err)
		}
	}
}

func randVec(rng *rand.Rand, d int, maxT float64) Vector {
	v := make(Vector, d)
	for i := range v {
		v[i] = rng.Float64() * maxT
	}
	return v
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
