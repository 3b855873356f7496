package server

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
)

// FuzzDeltaBodies sends fuzzed bodies to the events, users, cancel and
// rebalance routes of one instance: each line of body is one request, to
// the route picked by route plus the line number (a rebalance line is its
// query string). No answer may be a 5xx, and after every request
// GET /instances/{id} must return a feasible matching of the instance.
//
// Run it with: go test -run '^$' -fuzz FuzzDeltaBodies -fuzztime 20s ./internal/server
func FuzzDeltaBodies(f *testing.F) {
	f.Add(uint8(0), "{\"attrs\":[1,1],\"cap\":3,\"conflicts\":[]}\n{\"attrs\":[2,1],\"cap\":2}\n{\"event\":0}\nscope=dirty")
	f.Add(uint8(0), "{\"attrs\":[1,2],\"cap\":2}\n{\"attrs\":[1,1],\"cap\":1}\n{\"user\":0}\nscope=full&algo=exact")
	f.Add(uint8(1), "{\"attrs\":[1],\"cap\":-1}\n{\"event\":9}\nalgo=mincostflow&approx_shard=1&shard_max_area=1")
	f.Add(uint8(0), "{\"attrs\":[0,0],\"cap\":1,\"conflicts\":[0,7]}\n{\"attrs\":[1e308,-1e308],\"cap\":1}")
	f.Add(uint8(2), "{\"event\":0,\"user\":0}\nalgo=portfolio\n{\"attrs\":null}")
	f.Add(uint8(3), "algo=random-v&seed=-5&workers=3\n{\"attrs\":[3,3],\"cap\":9}\n{\"attrs\":[3,3],\"cap\":9}\n{\"user\":-1}")
	routes := []string{"events", "users", "cancel", "rebalance"}
	f.Fuzz(func(t *testing.T, route uint8, body string) {
		h, s, err := newHandler(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		if err != nil {
			t.Fatal(err)
		}
		do := func(req *http.Request) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		create := httptest.NewRequest(http.MethodPost, "/instances", strings.NewReader(`{"id":"f","sim":"euclidean","dim":2,"max_t":10}`))
		if rec := do(create); rec.Code != http.StatusCreated {
			t.Fatalf("create: %d %s", rec.Code, rec.Body)
		}
		for i, line := range strings.SplitN(body, "\n", 16) {
			r := routes[(int(route)+i)%len(routes)]
			req := httptest.NewRequest(http.MethodPost, "/instances/f/"+r, strings.NewReader(line))
			if r == "rebalance" {
				req = httptest.NewRequest(http.MethodPost, "/instances/f/rebalance", nil)
				req.URL.RawQuery = line
			}
			if rec := do(req); rec.Code >= 500 {
				t.Fatalf("%s %q: %d %s", r, line, rec.Code, rec.Body)
			}
			rec := do(httptest.NewRequest(http.MethodGet, "/instances/f", nil))
			var status InstanceStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &status); rec.Code != http.StatusOK || err != nil {
				t.Fatalf("get after %s %q: %d %v", r, line, rec.Code, err)
			}
			in, _, err := s.instances["f"].Arr.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			m := core.NewMatching()
			for _, p := range status.Matching.Pairs {
				m.Add(p.V, p.U, p.Sim)
			}
			if err := core.Validate(in, m); err != nil {
				t.Fatalf("after %s %q: served matching infeasible: %v", r, line, err)
			}
		}
	})
}
