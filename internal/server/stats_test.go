package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/obs"
)

// doPost drives one POST through the full handler stack.
func doPost(t *testing.T, h http.Handler, path, body string, want int) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != want {
		t.Fatalf("%s: %d %s", path, rr.Code, rr.Body)
	}
	return rr
}

// seedStatsInstance creates instance "st" with one 2-cap event, three users,
// and a rebalance — the fixture both stats tests read back.
func seedStatsInstance(t *testing.T, h http.Handler) {
	t.Helper()
	doPost(t, h, "/instances", `{"id":"st","sim":"euclidean","dim":2,"max_t":10}`, http.StatusCreated)
	doPost(t, h, "/instances/st/events", `{"attrs":[0,0],"cap":2}`, http.StatusOK)
	doPost(t, h, "/instances/st/events", `{"attrs":[9,9],"cap":1}`, http.StatusOK)
	for i := 0; i < 3; i++ {
		doPost(t, h, "/instances/st/users", fmt.Sprintf(`{"attrs":[%d,0],"cap":1}`, i), http.StatusOK)
	}
	doPost(t, h, "/instances/st/rebalance?scope=full", "", http.StatusOK)
}

func getStats(t *testing.T, h http.Handler) InstanceStats {
	t.Helper()
	rr := doGet(t, h, "/instances/st/stats")
	if rr.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rr.Code, rr.Body)
	}
	var st InstanceStats
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad stats body %s: %v", rr.Body, err)
	}
	return st
}

// TestInstanceStatsEphemeral: the stats payload for an in-memory instance —
// op counts, the rebalance-outcome ring (with its request ID), the quality
// gap against the relaxation bound, and zeroed persistence fields.
func TestInstanceStatsEphemeral(t *testing.T) {
	h, _, _ := newCorrelationHandler(t, Config{})
	seedStatsInstance(t, h)
	st := getStats(t, h)

	if st.ID != "st" || st.Events != 2 || st.Users != 3 {
		t.Fatalf("shape: %+v", st)
	}
	if st.Pairs == 0 || st.MaxSum <= 0 {
		t.Fatalf("rebalanced instance has empty matching: %+v", st)
	}
	wantOps := map[string]int64{"add_event": 2, "add_user": 3, "rebalance": 1}
	for k, want := range wantOps {
		if st.OpCounts[k] != want {
			t.Errorf("op_counts[%s] = %d, want %d (all: %v)", k, st.OpCounts[k], want, st.OpCounts)
		}
	}
	if len(st.RecentRebalances) != 1 {
		t.Fatalf("recent_rebalances: %+v", st.RecentRebalances)
	}
	// Adopted may be false: the online arrangement can already be optimal,
	// in which case the rebalance is recorded but not adopted.
	rb := st.RecentRebalances[0]
	if rb.RequestID == "" || rb.Scope != "full" || rb.Algo == "" || rb.Time.IsZero() || rb.Gain < 0 {
		t.Fatalf("rebalance outcome: %+v", rb)
	}
	if rb.ComponentsTotal < 1 || rb.ComponentsSolved < 1 {
		t.Fatalf("rebalance component counts: %+v", rb)
	}

	// Quality: the relaxation bound dominates the arrangement, the gap is a
	// clamped fraction of the bound.
	if st.RelaxedUpperBound < st.MaxSum {
		t.Fatalf("upper bound %v below max_sum %v", st.RelaxedUpperBound, st.MaxSum)
	}
	if st.Gap < 0 || st.Gap > 1 {
		t.Fatalf("gap %v outside [0,1]", st.Gap)
	}

	// A full rebalance consumed every dirty mark.
	if len(st.DirtyEvents) != 0 || len(st.DirtyUsers) != 0 || st.DirtyComponents != 0 {
		t.Fatalf("dirty state after full rebalance: %+v", st)
	}
	if st.ComponentsTotal < 1 {
		t.Fatalf("components_total = %d", st.ComponentsTotal)
	}

	// Ephemeral: no WAL drift to report.
	if st.Persistent || st.Seq != 0 || st.BytesSinceSnapshot != 0 {
		t.Fatalf("ephemeral instance reports persistence: %+v", st)
	}
}

// TestInstanceStatsPersistence: on a persistent instance the stats carry WAL
// drift, and lifetime op counts survive a restart because they are replayed
// from the full log, not reset by snapshots.
func TestInstanceStatsPersistence(t *testing.T) {
	dir := t.TempDir()

	h, _, _ := newCorrelationHandler(t, Config{DataDir: dir})
	seedStatsInstance(t, h)
	before := getStats(t, h)
	if !before.Persistent {
		t.Fatalf("instance not persistent: %+v", before)
	}
	// 6 ops logged (2 events + 3 users + 1 rebalance), no snapshot taken yet
	// at the default cadence.
	if before.Seq != 6 || before.OpsSinceSnapshot != 6 || before.BytesSinceSnapshot <= 0 {
		t.Fatalf("WAL drift: seq=%d ops_since=%d bytes_since=%d",
			before.Seq, before.OpsSinceSnapshot, before.BytesSinceSnapshot)
	}

	// Restart on the same directory: replay restores the lifetime tallies.
	h2, _, _ := newCorrelationHandler(t, Config{DataDir: dir})
	after := getStats(t, h2)
	if after.Events != 2 || after.Users != 3 || after.Seq != before.Seq {
		t.Fatalf("restart lost state: %+v", after)
	}
	for k, want := range map[string]int64{"add_event": 2, "add_user": 3, "rebalance": 1} {
		if after.OpCounts[k] != want {
			t.Errorf("post-restart op_counts[%s] = %d, want %d (all: %v)",
				k, after.OpCounts[k], want, after.OpCounts)
		}
	}
	// The in-memory rebalance ring is not persisted; a restart starts empty.
	if len(after.RecentRebalances) != 0 {
		t.Fatalf("rebalance ring survived restart: %+v", after.RecentRebalances)
	}

	// Unknown instance: 404, not 500.
	rr := doGet(t, h2, "/instances/nope/stats")
	if rr.Code != http.StatusNotFound {
		t.Fatalf("stats for unknown instance: %d %s", rr.Code, rr.Body)
	}
}

// TestInstanceStatsCanceledSkipsRelaxation: a stats request whose client is
// already gone answers 499 without augmenting a single flow path.
func TestInstanceStatsCanceledSkipsRelaxation(t *testing.T) {
	h, _, _ := newCorrelationHandler(t, Config{})
	seedStatsInstance(t, h)
	augs := obs.Default().Counter("geacc_mcflow_augmentations_total")
	before := augs.Value()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/instances/st/stats", nil).WithContext(ctx))
	if rr.Code != statusClientClosedRequest {
		t.Fatalf("canceled stats: %d %s", rr.Code, rr.Body)
	}
	if got := augs.Value(); got != before {
		t.Fatalf("canceled stats augmented %d flow paths", got-before)
	}
}

// snapshotRelaxation returns the relaxed optimum of instance id's snapshot.
func snapshotRelaxation(t *testing.T, svc *service, id string) float64 {
	t.Helper()
	inst := svc.instances[id]
	inst.mu.Lock()
	defer inst.mu.Unlock()
	in, _, err := inst.Arr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return core.RelaxedUpperBound(in)
}

// TestInstanceStatsKeptBound: stats reads the kept relaxation bound and
// never runs a flow. A repeated read evaluates no similarity; a full flow
// rebalance makes the bound exact; after a restart the first read prices
// every node, a valid bound that is marked as updated.
func TestInstanceStatsKeptBound(t *testing.T) {
	dir := t.TempDir()
	h, svc, _ := newCorrelationHandler(t, Config{DataDir: dir})
	seedStatsInstance(t, h)
	doPost(t, h, "/instances/st/users", `{"attrs":[0,1],"cap":2}`, http.StatusOK)
	runs := obs.Default().Counter("geacc_mcflow_runs_total")
	kernel := obs.Default().Counter("geacc_sim_kernel_pairs_total")

	// read returns one stats read and the kernel pairs it evaluated.
	read := func(h http.Handler, svc *service) (InstanceStats, int64) {
		t.Helper()
		before, pairs := runs.Value(), kernel.Value()
		st := getStats(t, h)
		pairs = kernel.Value() - pairs
		if got := runs.Value() - before; got != 0 {
			t.Fatalf("stats ran %d min-cost flows", got)
		}
		if relax := snapshotRelaxation(t, svc, "st"); st.RelaxedUpperBound < relax*(1-1e-9) ||
			st.BoundUpdates == 0 && math.Abs(st.RelaxedUpperBound-relax) > 1e-9*relax {
			t.Fatalf("bound %v with %d updates, relaxation %v", st.RelaxedUpperBound, st.BoundUpdates, relax)
		}
		return st, pairs
	}
	first, _ := read(h, svc)
	if first.BoundUpdates == 0 {
		t.Fatalf("a greedy rebalance and an arrival left no bound update: %+v", first)
	}
	again, pairs := read(h, svc)
	if again.RelaxedUpperBound != first.RelaxedUpperBound || again.BoundUpdates != first.BoundUpdates {
		t.Fatalf("a second read moved the bound: %+v, then %+v", first, again)
	}
	if pairs != 0 {
		t.Fatalf("a second read evaluated %d kernel pairs", pairs)
	}

	doPost(t, h, "/instances/st/rebalance?scope=full&algo=mincostflow", "", http.StatusOK)
	if st, _ := read(h, svc); st.BoundUpdates != 0 || st.RelaxedUpperBound > first.RelaxedUpperBound {
		t.Fatalf("after a full flow rebalance: bound %v with %d updates, was %v",
			st.RelaxedUpperBound, st.BoundUpdates, first.RelaxedUpperBound)
	}

	h2, svc2, _ := newCorrelationHandler(t, Config{DataDir: dir})
	if st, _ := read(h2, svc2); st.BoundUpdates == 0 {
		t.Fatalf("a restarted instance reads an unpriced bound: %+v", st)
	}
}

// TestInstanceStatsKeptComponents: the stats component counts follow the
// kept union graph — a user near the stranded event makes a second
// component, a user between the two events merges them — and a read with
// no arrival since the last evaluates no similarity.
func TestInstanceStatsKeptComponents(t *testing.T) {
	h, _, _ := newCorrelationHandler(t, Config{})
	// max_t 1 on two dimensions: sim > 0 only within distance √2.
	doPost(t, h, "/instances", `{"id":"st","sim":"euclidean","dim":2,"max_t":1}`, http.StatusCreated)
	doPost(t, h, "/instances/st/events", `{"attrs":[0,0],"cap":2}`, http.StatusOK)
	doPost(t, h, "/instances/st/events", `{"attrs":[2,0],"cap":1}`, http.StatusOK)
	doPost(t, h, "/instances/st/users", `{"attrs":[0,0.5],"cap":1}`, http.StatusOK)
	pairs := obs.Default().Counter("geacc_decomp_union_pairs_total")
	getStats(t, h) // the first read scans the instance once
	before := pairs.Value()
	steps := []struct {
		user         string // arrival before the read; "" for none
		total, dirty int
		pairs        int64 // union pairs evaluated since the first read
	}{
		{"", 1, 1, 0},                          // event 1 is stranded
		{`{"attrs":[2.5,0],"cap":1}`, 2, 2, 2}, // near event 1 only
		{`{"attrs":[1,0],"cap":1}`, 1, 1, 4},   // near both: one component
	}
	for i, s := range steps {
		if s.user != "" {
			doPost(t, h, "/instances/st/users", s.user, http.StatusOK)
		}
		st := getStats(t, h)
		if st.ComponentsTotal != s.total || st.DirtyComponents != s.dirty {
			t.Fatalf("step %d: components_total %d, dirty_components %d; want %d, %d",
				i, st.ComponentsTotal, st.DirtyComponents, s.total, s.dirty)
		}
		if got := pairs.Value() - before; got != s.pairs {
			t.Fatalf("step %d: %d union pairs since the first read, want %d", i, got, s.pairs)
		}
	}
}
