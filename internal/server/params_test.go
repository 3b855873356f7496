package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"github.com/ebsnlab/geacc/internal/partition"
)

// TestSolveParamsRejectMalformed: /solve and rebalance read their query
// through one codec whose boolean parser takes 1/true/yes and 0/false/no
// and answers 400 to anything else — including on a server whose
// -approx-shard default a misread ?approx_shard=on would silently undo.
func TestSolveParamsRejectMalformed(t *testing.T) {
	srv, _ := newCacheServer(t, Config{Shard: &partition.Options{MaxArea: 1 << 40}})
	doc := euclideanInstanceJSON(t, 1, 4, 12)
	mustPost(t, srv.URL+"/instances", `{"id":"p","sim":"euclidean","dim":2,"max_t":10}`)
	mustPost(t, srv.URL+"/instances/p/events", `{"attrs":[1,2],"cap":2}`)
	mustPost(t, srv.URL+"/instances/p/users", `{"attrs":[1,1],"cap":1}`)
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/solve?approx_shard=on", http.StatusBadRequest},
		{"/solve?diag=on", http.StatusBadRequest},
		{"/solve?decompose=maybe", http.StatusBadRequest},
		{"/solve?cache=maybe", http.StatusBadRequest},
		{"/solve?workers=two", http.StatusBadRequest},
		{"/solve?approx_shard=0&diag=yes&cache=no", http.StatusOK},
		{"/solve?algo=portfolio", http.StatusBadRequest}, // the shard default decomposes
		{"/solve?algo=portfolio&approx_shard=false", http.StatusOK},
		{"/instances/p/rebalance?approx_shard=on", http.StatusBadRequest},
		{"/instances/p/rebalance?cache=maybe", http.StatusBadRequest},
		{"/instances/p/rebalance?algo=portfolio", http.StatusBadRequest},
		{"/instances/p/rebalance?approx_shard=no&cache=false", http.StatusOK},
	} {
		body := doc
		if strings.HasPrefix(tc.path, "/instances") {
			body = nil
		}
		resp, out := postJSON(t, srv.URL+tc.path, body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.path, resp.StatusCode, tc.want, out)
		}
	}
}

// TestSolveCacheKeysOnlyWhatChangesTheBody: a deterministic solver's seed
// cannot change its answer, so another seed is a cache hit with the same
// bytes; a random baseline's seed can, so another seed is a miss.
func TestSolveCacheKeysOnlyWhatChangesTheBody(t *testing.T) {
	srv, svc := newCacheServer(t, Config{})
	doc := euclideanInstanceJSON(t, 3, 5, 20)
	for _, tc := range []struct {
		algo string
		hit  bool
	}{{"greedy", true}, {"mincostflow", true}, {"random-v", false}} {
		_, body1 := postJSON(t, srv.URL+"/solve?algo="+tc.algo+"&seed=1", doc)
		before := svc.solveCache.Stats()
		resp, body2 := postJSON(t, srv.URL+"/solve?algo="+tc.algo+"&seed=2", doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.algo, resp.StatusCode, body2)
		}
		after := svc.solveCache.Stats()
		if hit := after.Hits == before.Hits+1; hit != tc.hit {
			t.Fatalf("%s seed=2 after seed=1: hit=%v, want %v (%+v -> %+v)", tc.algo, hit, tc.hit, before, after)
		}
		if tc.hit && !bytes.Equal(body1, body2) {
			t.Fatalf("%s: hit body differs:\n%s\nvs\n%s", tc.algo, body1, body2)
		}
	}
}

// TestSolveCachedMatchesFreshProperty: over random instances and query
// specs, whatever /solve serves from its cache carries the same matching
// as an uncached solve of the same request.
func TestSolveCachedMatchesFreshProperty(t *testing.T) {
	srv, svc := newCacheServer(t, Config{})
	rng := rand.New(rand.NewSource(11))
	algos := []string{"greedy", "mincostflow", "exact", "random-v", "random-u"}
	for i := 0; i < 30; i++ {
		doc := euclideanInstanceJSON(t, rng.Int63(), 2+rng.Intn(4), 5+rng.Intn(20))
		q := fmt.Sprintf("algo=%s&seed=%d&decompose=%d&diag=%d&workers=%d",
			algos[rng.Intn(len(algos))], rng.Intn(3), rng.Intn(2), rng.Intn(2), rng.Intn(3))
		if rng.Intn(3) == 0 {
			q += "&approx_shard=1&shard_max_area=4"
		}
		_, first := postJSON(t, srv.URL+"/solve?"+q, doc)
		hitsBefore := svc.solveCache.Stats().Hits
		resp, cached := postJSON(t, srv.URL+"/solve?"+q, doc)
		if resp.StatusCode != http.StatusOK || svc.solveCache.Stats().Hits != hitsBefore+1 {
			t.Fatalf("%s: status %d, not a hit: %s", q, resp.StatusCode, cached)
		}
		if !bytes.Equal(first, cached) {
			t.Fatalf("%s: cached body differs from the response it memoized", q)
		}
		_, fresh := postJSON(t, srv.URL+"/solve?"+q+"&cache=0", doc)
		var c, f SolveResponse
		if err := json.Unmarshal(cached, &c); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(fresh, &f); err != nil {
			t.Fatal(err)
		}
		cm, _ := json.Marshal(c.Matching)
		fm, _ := json.Marshal(f.Matching)
		if !bytes.Equal(cm, fm) {
			t.Fatalf("%s: cached matching %s, fresh %s", q, cm, fm)
		}
	}
}
