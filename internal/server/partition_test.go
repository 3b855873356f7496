package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/partition"
)

// bridgedJSON encodes a bridged clustered instance: one giant similarity
// component, the ?approx_shard=1 workload.
func bridgedJSON(t *testing.T) []byte {
	return clusteredJSON(t, dataset.ClusteredConfig{
		NumEvents: 24, NumUsers: 240, Communities: 6, BlockDim: 2,
		EventCapMax: 6, UserCapMax: 3, CFRatio: 0.25,
		BridgeFrac: 0.1, Seed: 5,
	})
}

func solveDoc(t *testing.T, url string, body []byte) SolveResponse {
	t.Helper()
	resp, out := postJSON(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, out)
	}
	var doc SolveResponse
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSolveApproxShard: ?approx_shard=1 routes the giant component through
// internal/partition and surfaces the run in Diagnostics.Partition; without
// the flag the same request reports no partition activity.
func TestSolveApproxShard(t *testing.T) {
	srv := newServer(t)
	body := bridgedJSON(t)
	doc := solveDoc(t, srv.URL+"/solve?algo=mincostflow&approx_shard=1&shard_max_area=500&shard_drift_budget=0.9&diag=1", body)
	if doc.Diagnostics == nil || doc.Diagnostics.Partition == nil {
		t.Fatal("diagnostics missing partition stats")
	}
	pst := doc.Diagnostics.Partition
	if pst.Runs != 1 || pst.Shards < 2 || pst.Fallbacks != 0 {
		t.Fatalf("unexpected partition stats %+v", pst)
	}
	if pst.MaxDriftEstimate <= 0 || pst.MaxDriftEstimate > 0.9 {
		t.Fatalf("drift estimate %v outside (0, 0.9]", pst.MaxDriftEstimate)
	}
	if pst.BoundLoss != doc.Diagnostics.Gap {
		t.Fatalf("bound loss %v != diagnostics gap %v", pst.BoundLoss, doc.Diagnostics.Gap)
	}
	// approx_shard implies the decomposed path even without ?decompose=1.
	if doc.Diagnostics.Decomposition == nil {
		t.Fatal("sharded solve did not report decomposition stats")
	}
	plain := solveDoc(t, srv.URL+"/solve?algo=mincostflow&decompose=1&diag=1", body)
	if plain.Diagnostics.Partition != nil {
		t.Fatal("partition stats reported without approx_shard")
	}
}

// TestSolveApproxShardServerDefault: Config.Shard turns sharding on for
// every solve; ?approx_shard=0 opts a single request back out.
func TestSolveApproxShardServerDefault(t *testing.T) {
	sh := partition.Options{MaxArea: 500, DriftBudget: 0.9}.Normalized()
	handler, err := NewWithConfig(Config{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Shard:  &sh,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	body := bridgedJSON(t)
	doc := solveDoc(t, srv.URL+"/solve?algo=mincostflow&diag=1", body)
	if doc.Diagnostics == nil || doc.Diagnostics.Partition == nil {
		t.Fatal("service-wide shard default did not apply")
	}
	off := solveDoc(t, srv.URL+"/solve?algo=mincostflow&approx_shard=0&diag=1", body)
	if off.Diagnostics.Partition != nil {
		t.Fatal("?approx_shard=0 did not opt out of the service default")
	}
}

func TestSolveApproxShardBadParams(t *testing.T) {
	srv := newServer(t)
	body := bridgedJSON(t)
	for _, q := range []string{
		"approx_shard=1&shard_max_area=abc",
		"approx_shard=1&shard_max_area=-5",
		"approx_shard=1&shard_strategy=zigzag",
		"approx_shard=1&shard_drift_budget=nope",
		"approx_shard=1&shard_drift_budget=-0.1",
	} {
		resp, out := postJSON(t, srv.URL+"/solve?algo=mincostflow&"+q, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", q, resp.StatusCode, out)
		}
	}
}

// TestSolveApproxShardMatchesMonolithicResultShape: the sharded matching is
// a feasible arrangement of the same instance — the handler's Validate gate
// already enforces feasibility, so a 200 with pairs is the assertion.
func TestSolveApproxShardCacheKeyedSeparately(t *testing.T) {
	srv := newServer(t)
	body := bridgedJSON(t)
	sharded := solveDoc(t, srv.URL+"/solve?algo=mincostflow&approx_shard=1&shard_max_area=500&shard_drift_budget=0.9", body)
	plain := solveDoc(t, srv.URL+"/solve?algo=mincostflow&decompose=1", body)
	again := solveDoc(t, srv.URL+"/solve?algo=mincostflow&approx_shard=1&shard_max_area=500&shard_drift_budget=0.9", body)
	// The second sharded request must replay the sharded result, not the
	// plain one it would collide with if the shard knobs were left out of
	// the memo key (the two differ on this instance).
	if sharded.Matching.MaxSum == plain.Matching.MaxSum {
		t.Skip("sharded and plain solves coincide; key separation unobservable")
	}
	if again.Matching.MaxSum != sharded.Matching.MaxSum {
		t.Fatal("memo cache crossed between sharded and plain solve keys")
	}
}

// TestSolveExactGateDiagnostics: admitted exact solves surface the gate
// decision (measured area vs limit) in diagnostics; refused ones carry both
// numbers in the 422 message.
func TestSolveExactGateDiagnostics(t *testing.T) {
	srv := newServer(t)
	doc := solveDoc(t, srv.URL+"/solve?algo=exact&diag=1", instanceJSON(t))
	gate := doc.Diagnostics.ExactGate
	if gate == nil || gate.Gated || gate.ComponentArea != 6 || gate.Limit != decomp.MaxExactArea {
		t.Fatalf("unexpected exact gate %+v", gate)
	}
	// Non-exact solves must not report a gate.
	greedy := solveDoc(t, srv.URL+"/solve?algo=greedy&diag=1", instanceJSON(t))
	if greedy.Diagnostics.ExactGate != nil {
		t.Fatal("greedy solve reported an exact gate")
	}
	// 16×64 single community: one 1024-area component, gated both ways.
	whole := clusteredJSON(t, dataset.ClusteredConfig{
		NumEvents: 16, NumUsers: 64, Communities: 1, BlockDim: 2,
		EventCapMax: 3, UserCapMax: 2, CFRatio: 0.25, Seed: 9,
	})
	resp, out := postJSON(t, srv.URL+"/solve?algo=exact&decompose=1", whole)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), "largest component area 1024") || !strings.Contains(string(out), "200") {
		t.Fatalf("422 message missing measured area or limit: %s", out)
	}
}

// TestChromeTraceExactGate: the chrome trace solves through decomp.Run, so
// an exact search is gated as on /solve — admitted at area 6 with its
// solve/exact span, refused with 422 at area 1024 — and the portfolio
// stays a 400.
func TestChromeTraceExactGate(t *testing.T) {
	srv := newServer(t)
	resp, out := postJSON(t, srv.URL+"/trace?format=chrome&algo=exact", instanceJSON(t))
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(out), `"solve/exact"`) {
		t.Fatalf("exact trace under the limit: %d %s", resp.StatusCode, out)
	}
	whole := clusteredJSON(t, dataset.ClusteredConfig{
		NumEvents: 16, NumUsers: 64, Communities: 1, BlockDim: 2,
		EventCapMax: 3, UserCapMax: 2, CFRatio: 0.25, Seed: 9,
	})
	resp, out = postJSON(t, srv.URL+"/trace?format=chrome&algo=exact", whole)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(out), "instance area 1024") {
		t.Fatalf("exact trace over the limit: %d %s", resp.StatusCode, out)
	}
	if resp, out := postJSON(t, srv.URL+"/trace?format=chrome&algo=portfolio", instanceJSON(t)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("portfolio trace: %d %s", resp.StatusCode, out)
	}
}

// TestExactNodeBudget: an 11×10 instance passes the area gate, but its
// exact search does not finish; every HTTP exact surface stops it at
// decomp.MaxExactNodes and answers 422 naming the budget, within 2 s. The
// same instance built through deltas refuses an exact rebalance the same
// way and keeps the instance and its log unchanged.
func TestExactNodeBudget(t *testing.T) {
	cfg := dataset.ClusteredConfig{
		NumEvents: 11, NumUsers: 10, Communities: 1, BlockDim: 2,
		EventCapMax: 3, UserCapMax: 2, CFRatio: 0.4, Seed: -48,
	}
	dir := t.TempDir()
	srv := newInstanceServer(t, dir, 0)
	budget := fmt.Sprintf("node limit of %d nodes", decomp.MaxExactNodes)
	post := func(path string, body []byte) {
		t.Helper()
		start := time.Now()
		resp, out := postJSON(t, srv.URL+path, body)
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("%s: answered after %v, want within 2s", path, elapsed)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(out), budget) {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, out)
		}
	}
	hard := clusteredJSON(t, cfg)
	for _, path := range []string{"/solve?algo=exact", "/solve?algo=exact&decompose=1", "/trace?format=chrome&algo=exact"} {
		post(path, hard)
	}

	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	mustPost(t, srv.URL+"/instances", `{"id":"hard","sim":"cosine","dim":2}`)
	for v, e := range in.Events {
		req := AddEventRequest{Attrs: e.Attrs, Cap: e.Cap}
		for _, w := range in.Conflicts.Neighbors(v) {
			if w < v {
				req.Conflicts = append(req.Conflicts, w)
			}
		}
		body, _ := json.Marshal(req)
		mustPost(t, srv.URL+"/instances/hard/events", string(body))
	}
	for _, u := range in.Users {
		body, _ := json.Marshal(AddUserRequest{Attrs: u.Attrs, Cap: u.Cap})
		mustPost(t, srv.URL+"/instances/hard/users", string(body))
	}
	_, before := getBody(t, srv.URL+"/instances/hard")
	logPath := filepath.Join(dir, "hard", "ops.jsonl")
	logBefore, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	post("/instances/hard/rebalance?scope=full&algo=exact", nil)
	if _, after := getBody(t, srv.URL+"/instances/hard"); !bytes.Equal(before, after) {
		t.Fatalf("refused rebalance changed the instance:\nbefore: %s\nafter:  %s", before, after)
	}
	if logAfter, _ := os.ReadFile(logPath); !bytes.Equal(logBefore, logAfter) {
		t.Fatal("refused rebalance changed the log")
	}
}

// TestRebalanceShardParams: the rebalance path accepts the shard query
// parameters (plumbed into decomp.Options.Shard) and rejects bad ones.
func TestRebalanceShardParams(t *testing.T) {
	srv := newServer(t)
	mustPost(t, srv.URL+"/instances", `{"id":"shardy","sim":"euclidean","dim":2,"max_t":10}`)
	for i := 0; i < 3; i++ {
		mustPost(t, srv.URL+"/instances/shardy/events", `{"attrs":[1,2],"cap":2}`)
		mustPost(t, srv.URL+"/instances/shardy/users", `{"attrs":[1,1],"cap":1}`)
	}
	resp, out := postJSON(t, srv.URL+"/instances/shardy/rebalance?approx_shard=1&shard_max_area=4&shard_drift_budget=0.9", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	resp, out = postJSON(t, srv.URL+"/instances/shardy/rebalance?approx_shard=1&shard_strategy=zigzag", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad strategy: status %d: %s", resp.StatusCode, out)
	}
}

func mustPost(t *testing.T, url, body string) {
	t.Helper()
	resp, out := postJSON(t, url, []byte(body))
	if resp.StatusCode/100 != 2 {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, out)
	}
}
