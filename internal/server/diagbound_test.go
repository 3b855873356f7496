package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/obs"
)

// fixedDiagInstanceJSON is a deterministic 12×60 matrix instance with
// conflicts, so a mincostflow solve leaves a nonzero gap to the bound.
func fixedDiagInstanceJSON(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	const nv, nu = 12, 60
	events := make([]core.Event, nv)
	for v := range events {
		events[v] = core.Event{Cap: 1 + rng.Intn(6)}
	}
	users := make([]core.User, nu)
	for u := range users {
		users[u] = core.User{Cap: 1 + rng.Intn(3)}
	}
	matrix := make([][]float64, nv)
	for v := range matrix {
		matrix[v] = make([]float64, nu)
		for u := range matrix[v] {
			matrix[v][u] = rng.Float64()
		}
	}
	in, err := core.NewMatrixInstance(events, users, conflict.Random(rng, nv, 0.3), matrix)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encoding.EncodeInstance(&buf, in, encoding.SimMatrix, 0, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDiagnosedMincostflowSolvesOnce: a diagnosed mincostflow request runs
// the min-cost-flow relaxation once — the solve's own — and serves it as the
// bound, with the same bytes the separate relaxation used to produce.
func TestDiagnosedMincostflowSolvesOnce(t *testing.T) {
	srv := newServer(t)
	runs := obs.Default().Counter("geacc_mcflow_runs_total")
	before := runs.Value()
	resp, body := postJSON(t, srv.URL+"/solve?algo=mincostflow&diag=1&cache=0", fixedDiagInstanceJSON(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := runs.Value() - before; got != 1 {
		t.Errorf("geacc_mcflow_runs_total moved by %d, want 1", got)
	}
	var doc struct {
		Diagnostics struct {
			Bound json.RawMessage `json:"relaxed_upper_bound"`
			Gap   json.RawMessage `json:"gap"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	// Pinned from the build that still solved the relaxation separately.
	if got, want := string(doc.Diagnostics.Bound), "38.32936615658079"; got != want {
		t.Errorf("relaxed_upper_bound = %s, want %s", got, want)
	}
	if got, want := string(doc.Diagnostics.Gap), "0.02483885106188483"; got != want {
		t.Errorf("gap = %s, want %s", got, want)
	}
}

// TestDiagnosedDecomposedSolveSumsComponentBounds: a diagnosed decomposed
// mincostflow solve runs one flow per component and no monolithic
// relaxation; its bound is the monolithic one to 1e-9 relative. Sharded
// components are relaxed unsharded, so bound_loss keeps mirroring the gap.
func TestDiagnosedDecomposedSolveSumsComponentBounds(t *testing.T) {
	srv := newServer(t)
	runs := obs.Default().Counter("geacc_mcflow_runs_total")
	for _, tc := range []struct {
		name, query string
		body        []byte
	}{
		{"decompose", "decompose=1", smallClustered(t)},
		{"approx_shard", "approx_shard=1&shard_max_area=500&shard_drift_budget=0.9", bridgedJSON(t)},
	} {
		in, err := encoding.DecodeInstance(bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		want := core.RelaxedUpperBound(in)
		before := runs.Value()
		doc := solveDoc(t, srv.URL+"/solve?algo=mincostflow&diag=1&cache=0&"+tc.query, tc.body)
		moved := runs.Value() - before
		d := doc.Diagnostics
		if d == nil || d.Decomposition == nil {
			t.Fatalf("%s: decomposition diagnostics missing", tc.name)
		}
		if diff := math.Abs(d.RelaxedUpperBound - want); diff > 1e-9*want {
			t.Errorf("%s: bound %v, monolithic %v", tc.name, d.RelaxedUpperBound, want)
		}
		if tc.name == "decompose" && moved != int64(d.Decomposition.Components) {
			t.Errorf("%s: %d flow runs for %d components, want one each", tc.name, moved, d.Decomposition.Components)
		}
		if d.Partition != nil && d.Partition.BoundLoss != d.Gap {
			t.Errorf("%s: bound_loss %v != gap %v", tc.name, d.Partition.BoundLoss, d.Gap)
		}
	}
}
