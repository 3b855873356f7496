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
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/sim"
)

// newCacheServer builds a test server plus its in-package service handle,
// so tests can read the solve cache's counters directly.
func newCacheServer(t *testing.T, cfg Config) (*httptest.Server, *service) {
	t.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	h, svc, err := newHandler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, svc
}

// euclideanInstanceJSON serializes a random vector instance (euclidean
// similarity, so the cache can key it by SimID).
func euclideanInstanceJSON(t *testing.T, seed int64, nv, nu int) []byte {
	t.Helper()
	const d, maxT = 3, 10.0
	rng := rand.New(rand.NewSource(seed))
	vec := func() sim.Vector {
		v := make(sim.Vector, d)
		for i := range v {
			v[i] = rng.Float64() * maxT
		}
		return v
	}
	events := make([]core.Event, nv)
	for i := range events {
		events[i] = core.Event{Attrs: vec(), Cap: 1 + rng.Intn(2)}
	}
	users := make([]core.User, nu)
	for i := range users {
		users[i] = core.User{Attrs: vec(), Cap: 1 + rng.Intn(2)}
	}
	cf := conflict.Random(rng, nv, 0.25)
	in, err := core.NewInstance(events, users, cf, sim.Euclidean(d, maxT))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encoding.EncodeInstance(&buf, in, encoding.SimEuclidean, d, maxT); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSolveCacheByteIdenticalResponses is the tentpole contract over HTTP:
// for every algorithm, decomposed or not, a cache hit serves a response
// byte-for-byte identical to the fresh solve it memoized, and bit-identical
// in matching content to an uncached solve of the same instance.
func TestSolveCacheByteIdenticalResponses(t *testing.T) {
	srv, svc := newCacheServer(t, Config{})
	for _, algo := range core.SolverNames() {
		for _, decompose := range []bool{false, true} {
			name := fmt.Sprintf("%s/decompose=%v", algo, decompose)
			t.Run(name, func(t *testing.T) {
				// Small enough for the exact solver's HTTP area guard.
				doc := euclideanInstanceJSON(t, int64(len(algo)), 4, 12)
				url := srv.URL + "/solve?algo=" + algo + "&seed=7"
				if decompose {
					url += "&decompose=1"
				}
				before := svc.solveCache.Stats()
				resp1, body1 := postJSON(t, url, doc)
				if resp1.StatusCode != http.StatusOK {
					t.Fatalf("first solve: %d %s", resp1.StatusCode, body1)
				}
				resp2, body2 := postJSON(t, url, doc)
				if resp2.StatusCode != http.StatusOK {
					t.Fatalf("second solve: %d %s", resp2.StatusCode, body2)
				}
				if !bytes.Equal(body1, body2) {
					t.Fatalf("cached response differs from fresh:\n%s\nvs\n%s", body1, body2)
				}
				after := svc.solveCache.Stats()
				if after.Hits != before.Hits+1 {
					t.Fatalf("hits %d -> %d, want one new hit", before.Hits, after.Hits)
				}
				// The memoized matching must be bit-identical to an uncached
				// solve (timing fields legitimately differ).
				resp3, body3 := postJSON(t, url+"&cache=0", doc)
				if resp3.StatusCode != http.StatusOK {
					t.Fatalf("uncached solve: %d %s", resp3.StatusCode, body3)
				}
				var cached, fresh SolveResponse
				if err := json.Unmarshal(body2, &cached); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(body3, &fresh); err != nil {
					t.Fatal(err)
				}
				if cached.Matching.MaxSum != fresh.Matching.MaxSum {
					t.Fatalf("max_sum: cached %v fresh %v", cached.Matching.MaxSum, fresh.Matching.MaxSum)
				}
				if len(cached.Matching.Pairs) != len(fresh.Matching.Pairs) {
					t.Fatalf("pairs: cached %d fresh %d", len(cached.Matching.Pairs), len(fresh.Matching.Pairs))
				}
				for i := range cached.Matching.Pairs {
					if cached.Matching.Pairs[i] != fresh.Matching.Pairs[i] {
						t.Fatalf("pair %d: cached %+v fresh %+v", i,
							cached.Matching.Pairs[i], fresh.Matching.Pairs[i])
					}
				}
			})
		}
	}
}

// TestSolveCacheOptOut: ?cache=0 must neither read nor write the cache.
func TestSolveCacheOptOut(t *testing.T) {
	srv, svc := newCacheServer(t, Config{})
	doc := euclideanInstanceJSON(t, 42, 3, 8)
	before := svc.solveCache.Stats()
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, srv.URL+"/solve?algo=greedy&cache=0", doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: %d %s", i, resp.StatusCode, body)
		}
	}
	after := svc.solveCache.Stats()
	if after != before {
		t.Fatalf("cache touched despite ?cache=0: %+v -> %+v", before, after)
	}
}

// TestSolveCacheDisabled: negative SolveCacheEntries turns caching off
// service-wide; solves still work and statusz omits the cache block.
func TestSolveCacheDisabled(t *testing.T) {
	srv, svc := newCacheServer(t, Config{SolveCacheEntries: -1})
	if svc.solveCache != nil {
		t.Fatal("negative SolveCacheEntries must disable the cache")
	}
	doc := euclideanInstanceJSON(t, 1, 3, 8)
	resp, body := postJSON(t, srv.URL+"/solve?algo=greedy", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	code, sb := getBody(t, srv.URL+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz: %d", code)
	}
	var st map[string]json.RawMessage
	if err := json.Unmarshal(sb, &st); err != nil {
		t.Fatal(err)
	}
	if _, ok := st["solve_cache"]; ok {
		t.Fatal("statusz must omit solve_cache when caching is disabled")
	}
}

// TestStatuszReportsSolveCache: the statusz page surfaces hit/miss counts.
func TestStatuszReportsSolveCache(t *testing.T) {
	srv, _ := newCacheServer(t, Config{})
	doc := euclideanInstanceJSON(t, 5, 3, 8)
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, srv.URL+"/solve?algo=greedy", doc); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: %d %s", i, resp.StatusCode, body)
		}
	}
	code, body := getBody(t, srv.URL+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz: %d", code)
	}
	var st StatuszResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.SolveCache == nil {
		t.Fatal("statusz missing solve_cache block")
	}
	if st.SolveCache.Hits < 1 || st.SolveCache.Misses < 1 {
		t.Fatalf("solve_cache counters: %+v", *st.SolveCache)
	}
}

// TestSolveCachePortfolioExcluded: the portfolio's winner depends on a
// wall-clock race, so it must never be served from (or stored into) the
// cache.
func TestSolveCachePortfolioExcluded(t *testing.T) {
	srv, svc := newCacheServer(t, Config{})
	doc := euclideanInstanceJSON(t, 9, 3, 8)
	before := svc.solveCache.Stats()
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, srv.URL+"/solve?algo=portfolio", doc); resp.StatusCode != http.StatusOK {
			t.Fatalf("portfolio %d: %d %s", i, resp.StatusCode, body)
		}
	}
	if after := svc.solveCache.Stats(); after != before {
		t.Fatalf("portfolio touched the cache: %+v -> %+v", before, after)
	}
}

// TestRebalanceStatsReportCacheReuse drives an instance through deltas and
// repeated mincostflow rebalances and asserts the per-instance stats
// endpoint reports the warm-flow cache and both rebalance outcomes.
func TestRebalanceStatsReportCacheReuse(t *testing.T) {
	srv, _ := newCacheServer(t, Config{})
	seedRebalanceInstance(t, srv.URL, "c1", 11)
	for i := 0; i < 2; i++ {
		resp, body := postStr(t, srv.URL+"/instances/c1/rebalance?scope=full&algo=mincostflow", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rebalance %d: %d %s", i, resp.StatusCode, body)
		}
	}
	code, body := getBody(t, srv.URL+"/instances/c1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var st InstanceStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.WarmFlowEntries == 0 {
		t.Fatal("mincostflow rebalance should have populated the warm flow cache")
	}
	if n := len(st.RecentRebalances); n != 2 {
		t.Fatalf("recent rebalances: %d", n)
	}
}

// seedRebalanceInstance creates a euclidean instance with 6 events and 15
// users at random positions drawn from seed.
func seedRebalanceInstance(t *testing.T, base, id string, seed int64) {
	t.Helper()
	if resp, body := postStr(t, base+"/instances", fmt.Sprintf(`{"id":%q,"sim":"euclidean","dim":2,"max_t":10}`, id)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 6; i++ {
		ev := fmt.Sprintf(`{"attrs":[%v,%v],"cap":2}`, rng.Float64()*10, rng.Float64()*10)
		if resp, body := postStr(t, base+"/instances/"+id+"/events", ev); resp.StatusCode != http.StatusOK {
			t.Fatalf("add event: %d %s", resp.StatusCode, body)
		}
	}
	for i := 0; i < 15; i++ {
		us := fmt.Sprintf(`{"attrs":[%v,%v],"cap":1}`, rng.Float64()*10, rng.Float64()*10)
		if resp, body := postStr(t, base+"/instances/"+id+"/users", us); resp.StatusCode != http.StatusOK {
			t.Fatalf("add user: %d %s", resp.StatusCode, body)
		}
	}
}

// TestRebalanceLeavesSolveCacheCounters: only /solve memoizes, so dirty and
// full rebalances, cached or with ?cache=0, never move the solve-cache
// counters.
func TestRebalanceLeavesSolveCacheCounters(t *testing.T) {
	srv, _ := newCacheServer(t, Config{})
	seedRebalanceInstance(t, srv.URL, "c2", 12)
	names := []string{"geacc_solve_cache_hits_total", "geacc_solve_cache_misses_total", "geacc_solve_cache_evictions_total"}
	for _, q := range []string{"scope=dirty", "scope=full", "scope=full", "scope=dirty&cache=0", "scope=full&cache=0"} {
		before := obs.Default().Counters()
		resp, body := postStr(t, srv.URL+"/instances/c2/rebalance?algo=mincostflow&"+q, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rebalance %s: %d %s", q, resp.StatusCode, body)
		}
		after := obs.Default().Counters()
		for _, n := range names {
			if after[n] != before[n] {
				t.Errorf("rebalance %s moved %s by %d", q, n, after[n]-before[n])
			}
		}
	}
}

// TestReplayUnaffectedByCaches pins the replay non-interaction property:
// rebalances run with warm-started flow write only their adopted pairs to
// the WAL, so a restart replays to a byte-identical instance without
// consulting (or needing) the warm-flow cache.
func TestReplayUnaffectedByCaches(t *testing.T) {
	dir := t.TempDir()
	srv := newInstanceServer(t, dir, 0)
	if resp, body := postStr(t, srv.URL+"/instances", `{"id":"p1","sim":"euclidean","dim":2,"max_t":10}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	rng := rand.New(rand.NewSource(77))
	addSome := func() {
		for i := 0; i < 4; i++ {
			ev := fmt.Sprintf(`{"attrs":[%v,%v],"cap":2}`, rng.Float64()*10, rng.Float64()*10)
			if resp, body := postStr(t, srv.URL+"/instances/p1/events", ev); resp.StatusCode != http.StatusOK {
				t.Fatalf("add event: %d %s", resp.StatusCode, body)
			}
			us := fmt.Sprintf(`{"attrs":[%v,%v],"cap":1}`, rng.Float64()*10, rng.Float64()*10)
			if resp, body := postStr(t, srv.URL+"/instances/p1/users", us); resp.StatusCode != http.StatusOK {
				t.Fatalf("add user: %d %s", resp.StatusCode, body)
			}
		}
	}
	// Interleave deltas with warm-started mincostflow rebalances so the WAL
	// records rebalances that actually exercised the warm-flow cache.
	for round := 0; round < 3; round++ {
		addSome()
		resp, body := postStr(t, srv.URL+"/instances/p1/rebalance?algo=mincostflow", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rebalance round %d: %d %s", round, resp.StatusCode, body)
		}
	}
	code, before := getBody(t, srv.URL+"/instances/p1")
	if code != http.StatusOK {
		t.Fatalf("status before restart: %d", code)
	}
	srv.Close()

	srv2 := newInstanceServer(t, dir, 0)
	code, after := getBody(t, srv2.URL+"/instances/p1")
	if code != http.StatusOK {
		t.Fatalf("status after restart: %d", code)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("replayed instance diverged:\n%s\nvs\n%s", before, after)
	}
}
