package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/sim"
)

// newInstanceServer builds a test server with the given data directory
// ("" = ephemeral instances) and a quiet logger.
func newInstanceServer(t *testing.T, dataDir string, snapshotEvery int) *httptest.Server {
	t.Helper()
	h, err := NewWithConfig(Config{
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
		DataDir:       dataDir,
		SnapshotEvery: snapshotEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// postStr is postJSON for string literals.
func postStr(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	return postJSON(t, url, []byte(body))
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestInstanceLifecycle(t *testing.T) {
	srv := newInstanceServer(t, "", 0)

	resp, body := postStr(t, srv.URL+"/instances", `{"id":"prod","sim":"euclidean","dim":2,"max_t":10}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("create Content-Type = %q, want application/json", ct)
	}
	// Duplicate id → 409; bad id / unknown sim / matrix / missing sim
	// parameters → 400 (never a handler panic).
	if resp, body = postStr(t, srv.URL+"/instances", `{"id":"prod","sim":"euclidean","dim":2,"max_t":10}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: %d %s", resp.StatusCode, body)
	}
	if resp, _ = postStr(t, srv.URL+"/instances", `{"id":"../evil","sim":"euclidean","dim":2,"max_t":10}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id: %d", resp.StatusCode)
	}
	if resp, _ = postStr(t, srv.URL+"/instances", `{"id":"m","sim":"matrix"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("matrix sim: %d", resp.StatusCode)
	}
	if resp, _ = postStr(t, srv.URL+"/instances", `{"id":"e0","sim":"euclidean"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("euclidean without dim/max_t: %d", resp.StatusCode)
	}
	if resp, _ = postStr(t, srv.URL+"/instances", `{"id":"c0","sim":"cosine"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cosine without dim: %d", resp.StatusCode)
	}

	// Deltas: one event, two users; the greedy placement should match both.
	resp, body = postStr(t, srv.URL+"/instances/prod/events", `{"attrs":[0,0],"cap":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add event: %d %s", resp.StatusCode, body)
	}
	var delta DeltaResponse
	if err := json.Unmarshal(body, &delta); err != nil {
		t.Fatal(err)
	}
	if delta.ID == nil || *delta.ID != 0 {
		t.Fatalf("event id: %+v", delta)
	}
	for _, u := range []string{`{"attrs":[1,0],"cap":1}`, `{"attrs":[0,1],"cap":1}`} {
		if resp, body = postStr(t, srv.URL+"/instances/prod/users", u); resp.StatusCode != http.StatusOK {
			t.Fatalf("add user: %d %s", resp.StatusCode, body)
		}
	}

	// Status reflects the placements.
	code, body := getBody(t, srv.URL+"/instances/prod")
	if code != http.StatusOK {
		t.Fatalf("get: %d %s", code, body)
	}
	var status InstanceStatus
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if status.Events != 1 || status.Users != 2 || status.Pairs != 2 {
		t.Fatalf("status: %+v", status.InstanceSummary)
	}
	if len(status.DirtyEvents) != 1 || len(status.DirtyUsers) != 2 {
		t.Fatalf("dirty marks: %+v", status.InstanceSummary)
	}

	// Cancel the event: both users are released.
	if resp, body = postStr(t, srv.URL+"/instances/prod/cancel", `{"event":0}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %s", resp.StatusCode, body)
	}
	if resp, _ = postStr(t, srv.URL+"/instances/prod/cancel", `{"event":7}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown event: %d", resp.StatusCode)
	}
	if resp, _ = postStr(t, srv.URL+"/instances/prod/cancel", `{"event":0,"user":0}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cancel with both: %d", resp.StatusCode)
	}
	_, body = getBody(t, srv.URL+"/instances/prod")
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if status.Pairs != 0 {
		t.Fatalf("after cancel: %+v", status.InstanceSummary)
	}

	// List, then delete, then 404.
	code, body = getBody(t, srv.URL+"/instances")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"prod"`)) {
		t.Fatalf("list: %d %s", code, body)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/instances/prod", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	if code, _ = getBody(t, srv.URL+"/instances/prod"); code != http.StatusNotFound {
		t.Fatalf("get after delete: %d", code)
	}
}

// TestCosineInstanceRejectsMismatchedVectors: cosine instances pin their
// dimension at create time, so a wrong-length arrival is a 400 — it must
// never reach the cosine kernel (which panics on unequal lengths) or be
// persisted to the log, where it would panic every boot-time replay.
func TestCosineInstanceRejectsMismatchedVectors(t *testing.T) {
	dir := t.TempDir()
	srv := newInstanceServer(t, dir, 0)
	if resp, body := postStr(t, srv.URL+"/instances", `{"id":"cos","sim":"cosine","dim":2}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	if resp, body := postStr(t, srv.URL+"/instances/cos/users", `{"attrs":[1,2],"cap":1}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("matching-length user: %d %s", resp.StatusCode, body)
	}
	for _, bad := range []string{`{"attrs":[1],"cap":1}`, `{"attrs":[1,2,3],"cap":1}`, `{"attrs":[],"cap":1}`} {
		if resp, _ := postStr(t, srv.URL+"/instances/cos/users", bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("mismatched user %s: %d, want 400", bad, resp.StatusCode)
		}
		if resp, _ := postStr(t, srv.URL+"/instances/cos/events", bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("mismatched event %s: %d, want 400", bad, resp.StatusCode)
		}
	}
	// Nothing invalid was logged: a restart over the same directory replays
	// cleanly and still holds exactly the one valid arrival.
	srv.Close()
	srv2 := newInstanceServer(t, dir, 0)
	code, body := getBody(t, srv2.URL+"/instances/cos")
	if code != http.StatusOK {
		t.Fatalf("get after restart: %d %s", code, body)
	}
	var status InstanceStatus
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if status.Users != 1 || status.Events != 0 {
		t.Fatalf("after restart: %+v", status.InstanceSummary)
	}
}

// TestConcurrentDeltas hammers the instance API from many goroutines:
// first many of them adding users to one instance, then one lane per
// instance sending mixed deltas and dirty rebalances. Every op must be
// applied exactly once, with a log seq distinct within its instance, and
// each final arrangement must be feasible for the deltas sent.
func TestConcurrentDeltas(t *testing.T) {
	t.Run("one-instance", func(t *testing.T) {
		srv := newInstanceServer(t, t.TempDir(), 16)
		if resp, body := postStr(t, srv.URL+"/instances", `{"id":"c","sim":"euclidean","dim":2,"max_t":10}`); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: %d %s", resp.StatusCode, body)
		}
		if resp, body := postStr(t, srv.URL+"/instances/c/events", `{"attrs":[0,0],"cap":64}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("add event: %d %s", resp.StatusCode, body)
		}

		const n = 40
		seqs := make([]int64, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body := fmt.Sprintf(`{"attrs":[%d,1],"cap":1}`, i%7)
				resp, b := postStr(t, srv.URL+"/instances/c/users", body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("add user %d: %d %s", i, resp.StatusCode, b)
					return
				}
				var d DeltaResponse
				if err := json.Unmarshal(b, &d); err != nil {
					t.Error(err)
					return
				}
				seqs[i] = d.Seq
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		seen := make(map[int64]bool, n)
		for _, s := range seqs {
			if s == 0 || seen[s] {
				t.Fatalf("duplicate or missing seq %d in %v", s, seqs)
			}
			seen[s] = true
		}
		_, body := getBody(t, srv.URL+"/instances/c")
		var status InstanceStatus
		if err := json.Unmarshal(body, &status); err != nil {
			t.Fatal(err)
		}
		if status.Users != n || status.Events != 1 {
			t.Fatalf("after concurrent deltas: %+v", status.InstanceSummary)
		}
	})
	t.Run("lane-per-instance", func(t *testing.T) {
		srv := newInstanceServer(t, t.TempDir(), 16)
		const lanes, ops = 8, 30
		finals := make([]*core.Instance, lanes)
		var wg sync.WaitGroup
		for l := range finals {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				finals[l] = deltaLane(t, srv.URL, fmt.Sprintf("lane%d", l), rand.New(rand.NewSource(int64(l))), ops)
			}(l)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for l, in := range finals {
			code, body := getBody(t, fmt.Sprintf("%s/instances/lane%d", srv.URL, l))
			var status InstanceStatus
			if err := json.Unmarshal(body, &status); code != http.StatusOK || err != nil {
				t.Fatalf("get lane%d: %d %v", l, code, err)
			}
			if status.Events != in.NumEvents() || status.Users != in.NumUsers() {
				t.Fatalf("lane%d: %d events, %d users; sent %d, %d", l, status.Events, status.Users, in.NumEvents(), in.NumUsers())
			}
			m := core.NewMatching()
			for _, p := range status.Matching.Pairs {
				m.Add(p.V, p.U, p.Sim)
			}
			if err := core.Validate(in, m); err != nil {
				t.Fatalf("lane%d: %v", l, err)
			}
		}
	})
}

// deltaLane creates the Euclidean instance id and sends it n mixed ops one
// after another: event arrivals (half of them conflicting with an earlier
// event), user arrivals, user cancellations and dirty min-cost-flow
// rebalances. Every op must get a log seq no other op of the instance got.
// It returns the instance the stream built, cancelled users at capacity 0,
// or nil after reporting a failure.
func deltaLane(t *testing.T, base, id string, rng *rand.Rand, n int) *core.Instance {
	if resp, body := postStr(t, base+"/instances", fmt.Sprintf(`{"id":%q,"sim":"euclidean","dim":2,"max_t":10}`, id)); resp.StatusCode != http.StatusCreated {
		t.Errorf("create %s: %d %s", id, resp.StatusCode, body)
		return nil
	}
	var (
		events    []core.Event
		users     []core.User
		conflicts [][2]int
		live      []int
		seqs      = map[int64]bool{}
	)
	attrs := func() sim.Vector { return sim.Vector{float64(rng.Intn(10)), float64(rng.Intn(10))} }
	for i := 0; i < n; i++ {
		var path string
		var req any
		switch op := rng.Intn(4); {
		case op == 0 || len(events) == 0:
			e := AddEventRequest{Attrs: attrs(), Cap: 1 + rng.Intn(4)}
			if len(events) > 0 && rng.Intn(2) == 0 {
				v := rng.Intn(len(events))
				e.Conflicts = []int{v}
				conflicts = append(conflicts, [2]int{v, len(events)})
			}
			events = append(events, core.Event{Attrs: e.Attrs, Cap: e.Cap})
			path, req = "/events", e
		case op == 1 || len(live) == 0:
			u := AddUserRequest{Attrs: attrs(), Cap: 1 + rng.Intn(3)}
			live = append(live, len(users))
			users = append(users, core.User{Attrs: u.Attrs, Cap: u.Cap})
			path, req = "/users", u
		case op == 2:
			k := rng.Intn(len(live))
			u := live[k]
			live = append(live[:k], live[k+1:]...)
			users[u].Cap = 0
			path, req = "/cancel", CancelRequest{User: &u}
		default:
			path = "/rebalance?scope=dirty&algo=mincostflow"
		}
		body, _ := json.Marshal(req) // "null" for a rebalance, which reads no body
		resp, b := postJSON(t, base+"/instances/"+id+path, body)
		var ack struct {
			Seq int64 `json:"seq"`
		}
		if err := json.Unmarshal(b, &ack); resp.StatusCode != http.StatusOK || err != nil {
			t.Errorf("%s op %d %s: %d %s", id, i, path, resp.StatusCode, b)
			return nil
		}
		if ack.Seq == 0 || seqs[ack.Seq] {
			t.Errorf("%s op %d %s: seq %d missing or already taken", id, i, path, ack.Seq)
			return nil
		}
		seqs[ack.Seq] = true
	}
	in, err := core.NewInstance(events, users, conflict.FromPairs(len(events), conflicts), sim.Euclidean(2, 10))
	if err != nil {
		t.Errorf("%s: %v", id, err)
		return nil
	}
	return in
}

// TestPersistenceAcrossRestart streams deltas (crossing several snapshot
// boundaries), tears the handler down, builds a fresh one over the same
// data directory, and requires byte-identical GET /instances/{id} bodies.
func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srv := newInstanceServer(t, dir, 10)

	for _, id := range []string{"alpha", "beta"} {
		if resp, body := postStr(t, srv.URL+"/instances",
			fmt.Sprintf(`{"id":%q,"sim":"euclidean","dim":2,"max_t":10}`, id)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d %s", id, resp.StatusCode, body)
		}
		for i := 0; i < 12; i++ {
			postStr(t, srv.URL+"/instances/"+id+"/events", fmt.Sprintf(`{"attrs":[%d,0],"cap":2}`, i%5))
			postStr(t, srv.URL+"/instances/"+id+"/users", fmt.Sprintf(`{"attrs":[%d,1],"cap":1}`, i%5))
			if i%5 == 4 {
				postStr(t, srv.URL+"/instances/"+id+"/cancel", fmt.Sprintf(`{"event":%d}`, i%3))
			}
		}
		if resp, body := postStr(t, srv.URL+"/instances/"+id+"/rebalance?scope=full", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("rebalance %s: %d %s", id, resp.StatusCode, body)
		}
		postStr(t, srv.URL+"/instances/"+id+"/users", `{"attrs":[2,2],"cap":2}`)
	}
	before := map[string][]byte{}
	for _, id := range []string{"alpha", "beta"} {
		code, body := getBody(t, srv.URL+"/instances/"+id)
		if code != http.StatusOK {
			t.Fatalf("get %s: %d", id, code)
		}
		before[id] = body
	}
	srv.Close()

	srv2 := newInstanceServer(t, dir, 10)
	for _, id := range []string{"alpha", "beta"} {
		code, body := getBody(t, srv2.URL+"/instances/"+id)
		if code != http.StatusOK {
			t.Fatalf("get %s after restart: %d", id, code)
		}
		if !bytes.Equal(before[id], body) {
			t.Fatalf("instance %s diverged after restart:\nbefore: %s\nafter:  %s", id, before[id], body)
		}
	}
	// The replayed registry still owns the ids.
	if resp, _ := postStr(t, srv2.URL+"/instances", `{"id":"alpha","sim":"euclidean","dim":2,"max_t":10}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("create replayed id: %d", resp.StatusCode)
	}
}

// TestCosineWithoutMaxTSnapshots: cosine ignores max_t, so an instance
// created without it must still snapshot (it used to fail every snapshot
// and live on the log alone) and come back byte-identical after a restart.
func TestCosineWithoutMaxTSnapshots(t *testing.T) {
	dir := t.TempDir()
	srv := newInstanceServer(t, dir, 4)
	if resp, body := postStr(t, srv.URL+"/instances", `{"id":"cos","sim":"cosine","dim":2}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	for i := 0; i < 10; i++ {
		postStr(t, srv.URL+"/instances/cos/events", fmt.Sprintf(`{"attrs":[%d,1],"cap":2}`, 1+i%3))
		postStr(t, srv.URL+"/instances/cos/users", fmt.Sprintf(`{"attrs":[1,%d],"cap":1}`, 1+i%4))
	}
	if resp, body := postStr(t, srv.URL+"/instances/cos/rebalance?scope=full&algo=mincostflow", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance: %d %s", resp.StatusCode, body)
	}
	code, body := getBody(t, srv.URL+"/instances/cos/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var st InstanceStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.SnapshotSeq == 0 {
		t.Fatalf("no snapshot taken after %d ops with snapshot-every=4", st.Seq)
	}
	_, before := getBody(t, srv.URL+"/instances/cos")
	srv.Close()

	srv2 := newInstanceServer(t, dir, 4)
	code, after := getBody(t, srv2.URL+"/instances/cos")
	if code != http.StatusOK {
		t.Fatalf("get after restart: %d", code)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("instance diverged after restart:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestDirtyMarksSurviveSnapshotAndRestart: with snapshot-every=2, the
// second delta triggers a snapshot that folds both ops away — including the
// triggering op itself. Its dirty mark must be recorded before the snapshot
// is written, or a restart would silently drop it and the next scope=dirty
// rebalance would skip its component.
func TestDirtyMarksSurviveSnapshotAndRestart(t *testing.T) {
	dir := t.TempDir()
	srv := newInstanceServer(t, dir, 2)
	if resp, body := postStr(t, srv.URL+"/instances", `{"id":"s","sim":"euclidean","dim":2,"max_t":10}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	postStr(t, srv.URL+"/instances/s/events", `{"attrs":[1,1],"cap":2}`)
	postStr(t, srv.URL+"/instances/s/users", `{"attrs":[1,2],"cap":1}`) // triggers the snapshot
	_, body := getBody(t, srv.URL+"/instances/s")
	var before InstanceStatus
	if err := json.Unmarshal(body, &before); err != nil {
		t.Fatal(err)
	}
	if len(before.DirtyEvents) != 1 || len(before.DirtyUsers) != 1 {
		t.Fatalf("pre-restart dirty marks: %+v", before.InstanceSummary)
	}
	srv.Close()

	srv2 := newInstanceServer(t, dir, 2)
	_, body = getBody(t, srv2.URL+"/instances/s")
	var after InstanceStatus
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if len(after.DirtyEvents) != 1 || len(after.DirtyUsers) != 1 {
		t.Fatalf("dirty marks lost across snapshot+restart: %+v", after.InstanceSummary)
	}
}

// TestDirtyScopedRebalanceSolvesOneComponent builds two similarity
// communities so far apart they decompose into separate components, dirties
// only one of them, and asserts the scope=dirty rebalance dispatched
// exactly one component to the solver pool — measured by the
// geacc_decomp_components_total counter, which increments once per solved
// component.
func TestDirtyScopedRebalanceSolvesOneComponent(t *testing.T) {
	srv := newInstanceServer(t, "", 0)
	if resp, body := postStr(t, srv.URL+"/instances", `{"id":"d","sim":"euclidean","dim":2,"max_t":2}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	// Community A near the origin, community B near (100, 100): euclidean
	// similarity with max_t 2 is zero across the gap, so they are separate
	// decomposition components.
	for _, d := range []string{
		`{"attrs":[0,0],"cap":2}`, `{"attrs":[100,100],"cap":2}`,
	} {
		if resp, body := postStr(t, srv.URL+"/instances/d/events", d); resp.StatusCode != http.StatusOK {
			t.Fatalf("add event: %d %s", resp.StatusCode, body)
		}
	}
	for _, d := range []string{
		`{"attrs":[0.5,0],"cap":1}`, `{"attrs":[100,100.5],"cap":1}`,
	} {
		if resp, body := postStr(t, srv.URL+"/instances/d/users", d); resp.StatusCode != http.StatusOK {
			t.Fatalf("add user: %d %s", resp.StatusCode, body)
		}
	}
	// Full rebalance consumes the arrival dirty marks.
	if resp, body := postStr(t, srv.URL+"/instances/d/rebalance?scope=full", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("full rebalance: %d %s", resp.StatusCode, body)
	}

	// One delta inside community A only.
	if resp, body := postStr(t, srv.URL+"/instances/d/users", `{"attrs":[0,0.5],"cap":1}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("add user: %d %s", resp.StatusCode, body)
	}

	counter := obs.Default().Counter("geacc_decomp_components_total")
	beforeCount := counter.Value()
	resp, body := postStr(t, srv.URL+"/instances/d/rebalance?scope=dirty", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dirty rebalance: %d %s", resp.StatusCode, body)
	}
	var rb RebalanceResponse
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatal(err)
	}
	if rb.ComponentsTotal != 2 {
		t.Fatalf("components_total = %d, want 2 (communities merged?): %s", rb.ComponentsTotal, body)
	}
	if rb.ComponentsSolved != 1 {
		t.Fatalf("components_solved = %d, want 1: %s", rb.ComponentsSolved, body)
	}
	if got := counter.Value() - beforeCount; got != 1 {
		t.Fatalf("geacc_decomp_components_total advanced by %d, want 1 (only the dirty component)", got)
	}

	// The dirty marks were consumed.
	_, body = getBody(t, srv.URL+"/instances/d")
	var status InstanceStatus
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if len(status.DirtyEvents)+len(status.DirtyUsers) != 0 {
		t.Fatalf("dirty marks survived the rebalance: %+v", status.InstanceSummary)
	}
}

// TestInstanceMetricPathFolding keeps the metric label space bounded: the
// id segment must fold into the route template.
func TestInstanceMetricPathFolding(t *testing.T) {
	cases := map[string]string{
		"/instances":                "/instances",
		"/instances/prod":           "/instances/{id}",
		"/instances/prod/users":     "/instances/{id}/users",
		"/instances/prod/events":    "/instances/{id}/events",
		"/instances/prod/cancel":    "/instances/{id}/cancel",
		"/instances/prod/rebalance": "/instances/{id}/rebalance",
		"/instances/prod/whatever":  "other",
		"/instances/a/b/c":          "other",
		"/instances/":               "other",
		"/solve":                    "/solve",
		"/nope":                     "other",
	}
	for path, want := range cases {
		if got := metricPath(path); got != want {
			t.Errorf("metricPath(%q) = %q, want %q", path, got, want)
		}
	}
}
