package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/obs"
)

func TestDebugVarsServesValidJSON(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v\n%s", err, buf.String())
	}
	// Go's own runtime vars stay; the metrics live on /metrics only.
	if _, ok := doc["memstats"]; !ok {
		t.Fatal("/debug/vars has no \"memstats\" variable")
	}
	if _, ok := doc["geacc"]; ok {
		t.Fatal("/debug/vars still mirrors the metrics registry as \"geacc\"")
	}
}

func TestSolveIncrementsSolveMetrics(t *testing.T) {
	reg := obs.Default()
	total := reg.Counter(obs.Label("geacc_solve_total", "algo", "greedy"))
	hist := reg.Histogram(obs.Label("geacc_solve_seconds", "algo", "greedy"), obs.DefaultLatencyBuckets)
	beforeTotal, beforeHist := total.Value(), hist.Snapshot().Count

	srv := newServer(t)
	resp, body := postJSON(t, srv.URL+"/solve?algo=greedy", instanceJSON(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	if got := total.Value(); got != beforeTotal+1 {
		t.Fatalf("geacc_solve_total{algo=greedy} = %d, want %d", got, beforeTotal+1)
	}
	if got := hist.Snapshot().Count; got != beforeHist+1 {
		t.Fatalf("geacc_solve_seconds{algo=greedy} count = %d, want %d", got, beforeHist+1)
	}
}

func TestMiddlewareRecordsPerEndpointMetrics(t *testing.T) {
	reg := obs.Default()
	requests := reg.Counter(obs.Label("geacc_http_requests_total", "path", "/healthz", "code", "200"))
	latency := reg.Histogram(obs.Label("geacc_http_request_seconds", "path", "/healthz"), obs.DefaultLatencyBuckets)
	beforeReq, beforeLat := requests.Value(), latency.Snapshot().Count

	srv := newServer(t)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	if got := requests.Value(); got != beforeReq+3 {
		t.Fatalf("requests_total = %d, want %d", got, beforeReq+3)
	}
	if got := latency.Snapshot().Count; got != beforeLat+3 {
		t.Fatalf("request_seconds count = %d, want %d", got, beforeLat+3)
	}
}

func TestMiddlewareLabelsErrorCodes(t *testing.T) {
	reg := obs.Default()
	bad := reg.Counter(obs.Label("geacc_http_requests_total", "path", "/solve", "code", "400"))
	before := bad.Value()
	srv := newServer(t)
	if resp, _ := postJSON(t, srv.URL+"/solve", []byte("{")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := bad.Value(); got != before+1 {
		t.Fatalf("requests_total{code=400} = %d, want %d", got, before+1)
	}
}

func TestMiddlewareFoldsUnknownPaths(t *testing.T) {
	reg := obs.Default()
	other := reg.Counter(obs.Label("geacc_http_requests_total", "path", "other", "code", "404"))
	before := other.Value()
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/this/route/does/not/exist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := other.Value(); got != before+1 {
		t.Fatalf("requests_total{path=other} = %d, want %d", got, before+1)
	}
}

func TestSolveCanceledContextReturns499(t *testing.T) {
	errs := obs.Default().Counter(obs.Label("geacc_solve_errors_total", "algo", "mincostflow"))
	before := errs.Value()

	h := ephemeralHandler(t, nil)
	req := httptest.NewRequest(http.MethodPost, "/solve?algo=mincostflow", bytes.NewReader(instanceJSON(t)))
	ctx, cancel := context.WithCancel(req.Context())
	cancel() // the client is already gone
	req = req.WithContext(ctx)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)

	if rr.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d (body %s)", rr.Code, statusClientClosedRequest, rr.Body.String())
	}
	if got := errs.Value(); got != before+1 {
		t.Fatalf("solve_errors_total = %d, want %d", got, before+1)
	}
}

func TestTraceCanceledContextReturns499(t *testing.T) {
	h := ephemeralHandler(t, nil)
	req := httptest.NewRequest(http.MethodPost, "/trace", bytes.NewReader(instanceJSON(t)))
	ctx, cancel := context.WithCancel(req.Context())
	cancel()
	req = req.WithContext(ctx)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d", rr.Code, statusClientClosedRequest)
	}
}

// TestReportCanceledSkipsRelaxation: a /report whose client is already gone
// answers 499 without augmenting a single flow path of its bound.
func TestReportCanceledSkipsRelaxation(t *testing.T) {
	h := ephemeralHandler(t, nil)
	augs := obs.Default().Counter("geacc_mcflow_augmentations_total")
	before := augs.Value()
	body := pairBody(t, encoding.MatchingJSON{Pairs: []encoding.PairJSON{{V: 0, U: 0, Sim: 0.9}}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/report", bytes.NewReader(body)).WithContext(ctx))
	if rr.Code != statusClientClosedRequest {
		t.Fatalf("canceled report: %d %s", rr.Code, rr.Body)
	}
	if got := augs.Value(); got != before {
		t.Fatalf("canceled report augmented %d flow paths", got-before)
	}
}

func TestDebugHandlerServesPprof(t *testing.T) {
	srv := httptest.NewServer(DebugHandler())
	t.Cleanup(srv.Close)
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}
