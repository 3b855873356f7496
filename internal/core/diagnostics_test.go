package core

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"github.com/ebsnlab/geacc/internal/obs"
)

func TestSolveDiagnosticsGapDefinition(t *testing.T) {
	in := table1Instance(t)
	ub := RelaxedUpperBound(in)
	for _, algo := range []string{"greedy", "mincostflow", "exact"} {
		m, d, err := SolveDiagnostics(context.Background(), algo, in, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if d.Algo != algo {
			t.Errorf("%s: Algo = %q", algo, d.Algo)
		}
		if d.Events != in.NumEvents() || d.Users != in.NumUsers() {
			t.Errorf("%s: shape %d×%d, want %d×%d", algo, d.Events, d.Users, in.NumEvents(), in.NumUsers())
		}
		if d.Conflicts != in.Conflicts.Edges() {
			t.Errorf("%s: Conflicts = %d, want %d", algo, d.Conflicts, in.Conflicts.Edges())
		}
		if d.MaxSum != m.MaxSum() || d.Pairs != m.Size() {
			t.Errorf("%s: outcome %v/%d vs matching %v/%d", algo, d.MaxSum, d.Pairs, m.MaxSum(), m.Size())
		}
		if math.Abs(d.RelaxedUpperBound-ub) > 1e-9 {
			t.Errorf("%s: RelaxedUpperBound = %v, want %v", algo, d.RelaxedUpperBound, ub)
		}
		want := (ub - m.MaxSum()) / ub
		if want < 0 {
			want = 0
		}
		if math.Abs(d.Gap-want) > 1e-12 {
			t.Errorf("%s: Gap = %v, want (ub-maxsum)/ub = %v", algo, d.Gap, want)
		}
		if d.Gap < 0 || d.Gap > 1 {
			t.Errorf("%s: gap %v outside [0, 1]", algo, d.Gap)
		}
		if d.Seconds <= 0 {
			t.Errorf("%s: Seconds = %v", algo, d.Seconds)
		}
		if len(d.Phases) == 0 {
			t.Errorf("%s: no phases recorded", algo)
		}
		if len(d.MetricDeltas) == 0 {
			t.Errorf("%s: no metric deltas recorded", algo)
		}
	}
}

// TestSolveDiagnosticsBoundReuse is the reuse property: on random
// instances, every solver's diagnosed bound is bit-identical (==) to
// RelaxedUpperBound, and a diagnosed mincostflow solve runs the min-cost
// flow exactly once — its own relaxation doubles as the bound.
func TestSolveDiagnosticsBoundReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		var in *Instance
		if trial%2 == 0 {
			in = randMatrixInstance(rng, 2+rng.Intn(5), 3+rng.Intn(8), 3, 2, 0.3)
		} else {
			in = randVectorInstance(rng, 2+rng.Intn(5), 3+rng.Intn(8), 3, 3, 2, 0.3)
		}
		ub := RelaxedUpperBound(in)
		for _, algo := range []string{"greedy", "mincostflow", "exact", "random-v"} {
			runs := mcflowRuns.Value()
			_, d, err := SolveDiagnostics(context.Background(), algo, in, rand.New(rand.NewSource(int64(trial))))
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, algo, err)
			}
			if d.RelaxedUpperBound != ub {
				t.Errorf("trial %d %s: bound %v != RelaxedUpperBound %v", trial, algo, d.RelaxedUpperBound, ub)
			}
			if algo == "mincostflow" {
				if got := mcflowRuns.Value() - runs; got != 1 {
					t.Errorf("trial %d: diagnosed mincostflow ran the flow %d times, want 1", trial, got)
				}
			}
		}
	}
}

// TestSolveContextBoundReportsOnlyComputedBounds: only mincostflow hands a
// bound back; the others leave it for the caller to compute.
func TestSolveContextBoundReportsOnlyComputedBounds(t *testing.T) {
	in := table1Instance(t)
	for _, algo := range SolverNames() {
		m, bound, ok, err := SolveContextBound(context.Background(), algo, in, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		mustValidate(t, in, m, algo)
		if ok != (algo == "mincostflow") {
			t.Errorf("%s: ok = %v", algo, ok)
		}
		if ok && bound != RelaxedUpperBound(in) {
			t.Errorf("%s: bound %v != RelaxedUpperBound %v", algo, bound, RelaxedUpperBound(in))
		}
	}
}

func TestSolveDiagnosticsOptimalSolveHasZeroGap(t *testing.T) {
	// Without conflicts MinCostFlow solves the instance exactly, so the
	// achieved MaxSum meets the Corollary 1 bound and the gap must be 0.
	in, err := NewMatrixInstance(
		[]Event{{Cap: 2}, {Cap: 1}},
		[]User{{Cap: 1}, {Cap: 1}, {Cap: 2}},
		nil,
		[][]float64{{0.9, 0.1, 0.5}, {0.2, 0.8, 0.3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	_, d, err := SolveDiagnostics(context.Background(), "mincostflow", in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Gap != 0 {
		t.Errorf("gap = %v on a conflict-free mincostflow solve, want 0", d.Gap)
	}
	if d.EventCapacity != 3 || d.UserCapacity != 4 {
		t.Errorf("capacities %d/%d, want 3/4", d.EventCapacity, d.UserCapacity)
	}
}

func TestSolveDiagnosticsReusesContextRecorder(t *testing.T) {
	in := table1Instance(t)
	rec := obs.NewRecorder()
	ctx := obs.ContextWithRecorder(context.Background(), rec)
	_, d, err := SolveDiagnostics(ctx, "mincostflow", in, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The caller's recorder sees the same spans the artifact lists.
	spans := rec.Spans()
	if len(spans) != len(d.Phases) {
		t.Fatalf("recorder has %d spans, diagnostics %d phases", len(spans), len(d.Phases))
	}
	names := map[string]bool{}
	for _, sp := range spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"solve/mincostflow", "mincostflow/relax", "mincostflow/resolve"} {
		if !names[want] {
			t.Errorf("span %q missing (have %v)", want, names)
		}
	}
}

func TestSolveDiagnosticsPublishesGapMetrics(t *testing.T) {
	in := table1Instance(t)
	reg := obs.Default()
	before := reg.Histogram(obs.Label("geacc_solve_gap", "algo", "greedy"), gapBuckets).Count()
	_, d, err := SolveDiagnostics(context.Background(), "greedy", in, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := reg.Histogram(obs.Label("geacc_solve_gap", "algo", "greedy"), gapBuckets).Count()
	if after != before+1 {
		t.Errorf("gap histogram count %d -> %d, want +1", before, after)
	}
	if got := reg.FloatGauge(obs.Label("geacc_solve_last_gap", "algo", "greedy")).Value(); got != d.Gap {
		t.Errorf("last-gap gauge = %v, want %v", got, d.Gap)
	}
}

func TestDiagnosticsJSONRoundTrip(t *testing.T) {
	in := table1Instance(t)
	_, d, err := SolveDiagnostics(context.Background(), "exact", in, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Diagnostics
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Gap != d.Gap || back.Algo != d.Algo || back.RelaxedUpperBound != d.RelaxedUpperBound {
		t.Errorf("round trip mismatch: %+v vs %+v", back, d)
	}
}
