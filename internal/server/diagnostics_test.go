package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMetricsEndpointServesPrometheusText(t *testing.T) {
	srv := newServer(t)
	// Run one diagnosed solve so the gap histogram exists before scraping.
	resp, body := postJSON(t, srv.URL+"/solve?algo=greedy&diag=1", instanceJSON(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, body)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE geacc_solve_total counter",
		`geacc_solve_total{algo="greedy"}`,
		"# TYPE geacc_solve_gap histogram",
		`geacc_solve_gap_bucket{algo="greedy",le="+Inf"}`,
		`geacc_solve_gap_count{algo="greedy"}`,
		"# TYPE geacc_http_requests_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every sample line must be "name{labels} value" with a numeric value.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := parseFloatStrict(line[i+1:]); err != nil {
			t.Errorf("non-numeric value in %q: %v", line, err)
		}
	}
}

func parseFloatStrict(s string) (float64, error) {
	var v float64
	var err error
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	err = json.Unmarshal([]byte(s), &v)
	return v, err
}

func TestSolveDiagPayload(t *testing.T) {
	srv := newServer(t)
	resp, body := postJSON(t, srv.URL+"/solve?algo=mincostflow&diag=1", instanceJSON(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc SolveResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	d := doc.Diagnostics
	if d == nil {
		t.Fatal("diagnostics missing from diag=1 response")
	}
	if d.Algo != "mincostflow" || d.Events != 2 || d.Users != 3 {
		t.Errorf("diagnostics header = %+v", d)
	}
	if d.RelaxedUpperBound <= 0 {
		t.Errorf("RelaxedUpperBound = %v", d.RelaxedUpperBound)
	}
	want := (d.RelaxedUpperBound - d.MaxSum) / d.RelaxedUpperBound
	if want < 0 {
		want = 0
	}
	if math.Abs(d.Gap-want) > 1e-12 {
		t.Errorf("gap = %v, want %v", d.Gap, want)
	}
	if len(d.Phases) == 0 {
		t.Error("no phase timings in diagnostics")
	}

	// Without diag the field stays absent from the wire format.
	_, body = postJSON(t, srv.URL+"/solve?algo=mincostflow", instanceJSON(t))
	if bytes.Contains(body, []byte("diagnostics")) {
		t.Errorf("undiagnosed response leaks diagnostics: %s", body)
	}
}

func TestSolveDiagPortfolio(t *testing.T) {
	srv := newServer(t)
	resp, body := postJSON(t, srv.URL+"/solve?algo=portfolio&diag=1", instanceJSON(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc SolveResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Diagnostics == nil || doc.Diagnostics.Algo != "portfolio" {
		t.Fatalf("portfolio diagnostics = %+v", doc.Diagnostics)
	}
	if doc.Diagnostics.Gap < 0 || doc.Diagnostics.Gap > 1 {
		t.Errorf("gap = %v", doc.Diagnostics.Gap)
	}
}

func TestTraceChromeFormat(t *testing.T) {
	srv := newServer(t)
	resp, body := postJSON(t, srv.URL+"/trace?format=chrome&algo=mincostflow", instanceJSON(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, body)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q phase %q", ev.Name, ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"solve/mincostflow", "mincostflow/relax", "mincostflow/resolve"} {
		if !names[want] {
			t.Errorf("span %q missing from chrome trace (have %v)", want, names)
		}
	}

	if resp, _ := postJSON(t, srv.URL+"/trace?format=nope", instanceJSON(t)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad format: status %d, want 400", resp.StatusCode)
	}
}

func TestRequestLoggingMiddleware(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	srv := httptest.NewServer(ephemeralHandler(t, log))
	t.Cleanup(srv.Close)

	resp, body := postJSON(t, srv.URL+"/solve?algo=greedy&diag=1", instanceJSON(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	var sawSolve, sawRequest, sawDebugHealthz bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v (%q)", err, line)
		}
		switch rec["msg"] {
		case "solve":
			sawSolve = true
			if rec["algo"] != "greedy" {
				t.Errorf("solve log algo = %v", rec["algo"])
			}
			if _, ok := rec["gap"].(float64); !ok {
				t.Errorf("diagnosed solve log has no gap: %v", rec)
			}
		case "http request":
			sawRequest = true
			if rec["path"] == "/healthz" && rec["level"] == "DEBUG" {
				sawDebugHealthz = true
			}
			for _, k := range []string{"method", "path", "status", "seconds"} {
				if _, ok := rec[k]; !ok {
					t.Errorf("request log missing %s: %v", k, rec)
				}
			}
		}
	}
	if !sawSolve || !sawRequest || !sawDebugHealthz {
		t.Errorf("logs incomplete: solve=%v request=%v debugHealthz=%v\n%s",
			sawSolve, sawRequest, sawDebugHealthz, buf.String())
	}
}
