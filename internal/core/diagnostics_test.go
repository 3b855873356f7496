package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"
)

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

func TestDiagnosticsJSONRoundTrip(t *testing.T) {
	in := table1Instance(t)
	m, _, err := Exact(in)
	if err != nil {
		t.Fatal(err)
	}
	d := BuildDiagnostics("exact", in, m, time.Millisecond, nil, nil)
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
