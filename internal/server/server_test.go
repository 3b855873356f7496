package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/encoding"
)

func instanceJSON(t *testing.T) []byte {
	t.Helper()
	in, err := core.NewMatrixInstance(
		[]core.Event{{Cap: 2}, {Cap: 1}},
		[]core.User{{Cap: 1}, {Cap: 1}, {Cap: 2}},
		nil,
		[][]float64{{0.9, 0.1, 0.5}, {0.2, 0.8, 0.3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encoding.EncodeInstance(&buf, in, encoding.SimMatrix, 0, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ephemeralHandler is NewWithConfig with only a logger (nil means
// slog.Default()): instances live in memory.
func ephemeralHandler(t *testing.T, log *slog.Logger) http.Handler {
	t.Helper()
	h, err := NewWithConfig(Config{Logger: log})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	// Request logs are exercised by the dedicated logging tests; keep the
	// rest of the suite's output clean.
	srv := httptest.NewServer(ephemeralHandler(t, slog.New(slog.NewTextHandler(io.Discard, nil))))
	t.Cleanup(srv.Close)
	return srv
}

func TestHealthz(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestAlgorithmsEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Algorithms []string `json:"algorithms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"greedy": true, "mincostflow": true, "portfolio": true}
	found := 0
	for _, a := range doc.Algorithms {
		if want[a] {
			found++
		}
	}
	if found != len(want) {
		t.Fatalf("algorithms = %v", doc.Algorithms)
	}
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestSolveEndpoint(t *testing.T) {
	srv := newServer(t)
	for _, algo := range []string{"greedy", "mincostflow", "exact", "portfolio"} {
		resp, body := postJSON(t, srv.URL+"/solve?algo="+algo, instanceJSON(t))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", algo, resp.StatusCode, body)
		}
		var doc SolveResponse
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if doc.Matching.MaxSum <= 0 || len(doc.Matching.Pairs) == 0 {
			t.Fatalf("%s: empty solution %+v", algo, doc)
		}
		if doc.Events != 2 || doc.Users != 3 {
			t.Fatalf("%s: echo wrong: %+v", algo, doc)
		}
	}
}

func TestSolveDefaultsToGreedy(t *testing.T) {
	srv := newServer(t)
	resp, body := postJSON(t, srv.URL+"/solve", instanceJSON(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc SolveResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Algo != "greedy" {
		t.Fatalf("default algo = %s", doc.Algo)
	}
}

func TestSolveErrors(t *testing.T) {
	srv := newServer(t)
	if resp, _ := postJSON(t, srv.URL+"/solve", []byte("{")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/solve?algo=quantum", instanceJSON(t)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad algo: status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/solve?seed=abc", instanceJSON(t)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad seed: status %d", resp.StatusCode)
	}
	// GET on a POST route is a 405 under Go 1.22 method patterns.
	resp, err := http.Get(srv.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve: status %d", resp.StatusCode)
	}
}

func TestSolveExactGuard(t *testing.T) {
	// A big instance must be refused for the exact solver.
	events := make([]core.Event, 30)
	users := make([]core.User, 30)
	matrix := make([][]float64, 30)
	for i := range events {
		events[i] = core.Event{Cap: 1}
		users[i] = core.User{Cap: 1}
		matrix[i] = make([]float64, 30)
		for j := range matrix[i] {
			matrix[i][j] = 0.5
		}
	}
	in, err := core.NewMatrixInstance(events, users, nil, matrix)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encoding.EncodeInstance(&buf, in, encoding.SimMatrix, 0, 0); err != nil {
		t.Fatal(err)
	}
	srv := newServer(t)
	resp, body := postJSON(t, srv.URL+"/solve?algo=exact", buf.Bytes())
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

func pairBody(t *testing.T, matching encoding.MatchingJSON) []byte {
	t.Helper()
	doc := map[string]any{
		"instance": json.RawMessage(instanceJSON(t)),
		"matching": matching,
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTraceEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, body := postJSON(t, srv.URL+"/trace", instanceJSON(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc TraceResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Steps) == 0 {
		t.Fatal("no trace steps")
	}
	// Accepted steps reconstruct the matching size.
	accepted := 0
	for _, s := range doc.Steps {
		if s.Accepted {
			accepted++
		}
		if !s.Accepted && s.Reason == "" {
			t.Fatalf("rejected step without reason: %+v", s)
		}
	}
	if accepted != len(doc.Matching.Pairs) {
		t.Fatalf("%d accepted steps, %d pairs", accepted, len(doc.Matching.Pairs))
	}
	if resp, _ := postJSON(t, srv.URL+"/trace", []byte("{")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: status %d", resp.StatusCode)
	}
}

// TestValidateEncodeFailureAnswers500: a /validate matching whose two
// pairs each claim "sim": 1.7e308 sums to a max_sum of +Inf, which
// encoding/json refuses. The response used to be a 200 with an empty body
// (the status went out before the encode); it must be a 500 error naming
// the value.
func TestValidateEncodeFailureAnswers500(t *testing.T) {
	srv := newServer(t)
	huge := encoding.MatchingJSON{Pairs: []encoding.PairJSON{{V: 0, U: 0, Sim: 1.7e308}, {V: 0, U: 1, Sim: 1.7e308}}}
	resp, body := postJSON(t, srv.URL+"/validate", pairBody(t, huge))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, body %q; want 500", resp.StatusCode, body)
	}
	var e errorJSON
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "unsupported value: +Inf") {
		t.Fatalf("body %q (%v); want an error naming +Inf", body, err)
	}
}

func TestValidateEndpoint(t *testing.T) {
	srv := newServer(t)
	good := encoding.MatchingJSON{Pairs: []encoding.PairJSON{{V: 0, U: 0, Sim: 0.9}}}
	resp, body := postJSON(t, srv.URL+"/validate", pairBody(t, good))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var verdict ValidateResponse
	if err := json.Unmarshal(body, &verdict); err != nil {
		t.Fatal(err)
	}
	if !verdict.Feasible || verdict.Pairs != 1 {
		t.Fatalf("verdict %+v", verdict)
	}

	bad := encoding.MatchingJSON{Pairs: []encoding.PairJSON{{V: 0, U: 0, Sim: 0.123}}}
	resp, body = postJSON(t, srv.URL+"/validate", pairBody(t, bad))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &verdict); err != nil {
		t.Fatal(err)
	}
	if verdict.Feasible || verdict.Reason == "" {
		t.Fatalf("infeasible matching judged feasible: %+v", verdict)
	}
}

// TestValidateRejectsOutOfRangeIDs: a pair naming an id past the instance
// answers 400 with the range error from /validate and /report, before the
// id can size the matching's views.
func TestValidateRejectsOutOfRangeIDs(t *testing.T) {
	srv := newServer(t)
	far := encoding.MatchingJSON{Pairs: []encoding.PairJSON{{V: 4000000000, U: 0, Sim: 0.9}}}
	for _, path := range []string{"/validate", "/report"} {
		resp, body := postJSON(t, srv.URL+path, pairBody(t, far))
		var e errorJSON
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &e) != nil ||
			!strings.Contains(e.Error, "pair (4000000000, 0) out of range") {
			t.Fatalf("%s: status %d, body %s; want 400 naming the range", path, resp.StatusCode, body)
		}
	}
}

func TestReportEndpoint(t *testing.T) {
	srv := newServer(t)
	matching := encoding.MatchingJSON{Pairs: []encoding.PairJSON{{V: 0, U: 0, Sim: 0.9}}}
	resp, body := postJSON(t, srv.URL+"/report", pairBody(t, matching))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "MaxSum") {
		t.Fatalf("report payload: %s", body)
	}
	// An infeasible matching is a 422 from /report (it refuses to score it).
	bad := encoding.MatchingJSON{Pairs: []encoding.PairJSON{{V: 0, U: 0, Sim: 0.1}}}
	resp, _ = postJSON(t, srv.URL+"/report", pairBody(t, bad))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible report: status %d", resp.StatusCode)
	}
}

func TestSolveDeterministicSeed(t *testing.T) {
	srv := newServer(t)
	_, a := postJSON(t, srv.URL+"/solve?algo=random-v&seed=42", instanceJSON(t))
	_, b := postJSON(t, srv.URL+"/solve?algo=random-v&seed=42", instanceJSON(t))
	var da, db SolveResponse
	if err := json.Unmarshal(a, &da); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &db); err != nil {
		t.Fatal(err)
	}
	if da.Matching.MaxSum != db.Matching.MaxSum {
		t.Fatal("same seed, different result")
	}
}
