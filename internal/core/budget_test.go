package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBudgetValidate(t *testing.T) {
	in := table1Instance(t)
	good := &Budget{Prices: make([]float64, 3), Budgets: make([]float64, 5)}
	if err := good.Validate(in); err != nil {
		t.Fatal(err)
	}
	bad := []*Budget{
		{Prices: make([]float64, 2), Budgets: make([]float64, 5)},
		{Prices: make([]float64, 3), Budgets: make([]float64, 4)},
		{Prices: []float64{-1, 0, 0}, Budgets: make([]float64, 5)},
		{Prices: []float64{math.NaN(), 0, 0}, Budgets: make([]float64, 5)},
		{Prices: make([]float64, 3), Budgets: []float64{0, 0, 0, 0, math.Inf(1)}},
	}
	for i, b := range bad {
		if err := b.Validate(in); err == nil {
			t.Errorf("bad budget %d accepted", i)
		}
	}
}

func TestBudgetedGreedyZeroPricesEqualsPlain(t *testing.T) {
	in := table1Instance(t)
	m, err := BudgetedGreedy(in, freeBudget(in))
	if err != nil {
		t.Fatal(err)
	}
	if !matchingsEqual(m, Greedy(in)) {
		t.Fatal("free budget changed the greedy matching")
	}
}

func TestBudgetedGreedyBindingBudget(t *testing.T) {
	in := table1Instance(t)
	// Every event costs 10; u1 (capacity 3) can only afford one event.
	b := &Budget{
		Prices:  []float64{10, 10, 10},
		Budgets: []float64{10, 10, 10, 10, 10},
	}
	m, err := BudgetedGreedy(in, b)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < in.NumUsers(); u++ {
		if len(m.UserEvents(u)) > 1 {
			t.Fatalf("user %d attends %d events on a one-event budget", u, len(m.UserEvents(u)))
		}
	}
	if err := ValidateBudgeted(in, b, m); err != nil {
		t.Fatal(err)
	}
}

func TestBudgetedGreedyZeroBudgetNoPaidEvents(t *testing.T) {
	in := table1Instance(t)
	// Only v2 is free; broke users can attend v2 alone.
	b := &Budget{
		Prices:  []float64{5, 0, 5},
		Budgets: make([]float64, 5),
	}
	m, err := BudgetedGreedy(in, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Pairs() {
		if p.V != 1 {
			t.Fatalf("paid event %d assigned to a zero-budget user", p.V)
		}
	}
	if m.Size() == 0 {
		t.Fatal("free event not used at all")
	}
}

func TestValidateBudgetedCatchesOverspend(t *testing.T) {
	in := table1Instance(t)
	b := &Budget{
		Prices:  []float64{10, 10, 10},
		Budgets: []float64{5, 5, 5, 5, 5},
	}
	m := NewMatching()
	m.Add(0, 0, 0.93) // costs 10 > budget 5
	if err := ValidateBudgeted(in, b, m); err == nil {
		t.Fatal("overspend accepted")
	}
}

func TestBudgetedGreedyAlwaysFeasibleProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randMatrixInstance(rng, 2+rng.Intn(4), 2+rng.Intn(8), 3, 3, rng.Float64())
		b := &Budget{
			Prices:  make([]float64, in.NumEvents()),
			Budgets: make([]float64, in.NumUsers()),
		}
		for v := range b.Prices {
			b.Prices[v] = rng.Float64() * 20
		}
		for u := range b.Budgets {
			b.Budgets[u] = rng.Float64() * 30
		}
		m, err := BudgetedGreedy(in, b)
		if err != nil {
			return false
		}
		return ValidateBudgeted(in, b, m) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBudgetedGreedyLooseBudgetsMatchPlainProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randMatrixInstance(rng, 2+rng.Intn(4), 2+rng.Intn(6), 3, 3, rng.Float64())
		b := &Budget{
			Prices:  make([]float64, in.NumEvents()),
			Budgets: make([]float64, in.NumUsers()),
		}
		for v := range b.Prices {
			b.Prices[v] = 1
		}
		for u := range b.Budgets {
			b.Budgets[u] = float64(in.NumEvents()) // can afford everything
		}
		m, err := BudgetedGreedy(in, b)
		if err != nil {
			return false
		}
		return matchingsEqual(m, Greedy(in))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestBudgetedGreedyComposesHooks(t *testing.T) {
	in := table1Instance(t)
	var steps int
	banned := func(v, u int) bool { return !(v == 0 && u == 0) } // forbid (v1, u1)
	m, err := BudgetedGreedyOpts(in, freeBudget(in), GreedyOptions{
		Feasible: banned,
		Trace:    func(TraceStep) { steps++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Contains(0, 0) {
		t.Fatal("user Feasible hook ignored")
	}
	if steps == 0 {
		t.Fatal("user Trace hook ignored")
	}
}
