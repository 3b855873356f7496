package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/obs"
)

// jsonLogger is a debug-level JSON slog writing into buf.
func jsonLogger(buf *bytes.Buffer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// newCorrelationHandler builds the full handler stack with a JSON log
// buffer, so tests can grep request and domain log lines for request IDs.
func newCorrelationHandler(t *testing.T, cfg Config) (http.Handler, *service, *bytes.Buffer) {
	t.Helper()
	var logBuf bytes.Buffer
	cfg.Logger = jsonLogger(&logBuf)
	h, svc, err := newHandler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, svc, &logBuf
}

// logLines decodes every JSON log record in buf.
func logLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// findLog returns the first log record whose msg matches.
func findLog(records []map[string]any, msg string) map[string]any {
	for _, rec := range records {
		if rec["msg"] == msg {
			return rec
		}
	}
	return nil
}

// TestRequestIDEndToEndCorrelation drives one rebalance through the full
// handler stack and asserts the same request ID appears on every surface:
// the X-Request-ID response header, the domain and request log lines, the
// instance/rebalance span, and the Chrome trace export of that span.
func TestRequestIDEndToEndCorrelation(t *testing.T) {
	h, _, logBuf := newCorrelationHandler(t, Config{})

	do := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}
	if rr := do("POST", "/instances", `{"id":"corr","sim":"euclidean","dim":2,"max_t":10}`); rr.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rr.Code, rr.Body)
	}
	if rr := do("POST", "/instances/corr/events", `{"attrs":[0,0],"cap":2}`); rr.Code != http.StatusOK {
		t.Fatalf("add event: %d %s", rr.Code, rr.Body)
	}
	if rr := do("POST", "/instances/corr/users", `{"attrs":[1,0],"cap":1}`); rr.Code != http.StatusOK {
		t.Fatalf("add user: %d %s", rr.Code, rr.Body)
	}

	const wantID = "e2e-corr-42"
	rec := obs.NewRecorder()
	req := httptest.NewRequest("POST", "/instances/corr/rebalance?scope=dirty", nil).
		WithContext(obs.ContextWithRecorder(context.Background(), rec))
	req.Header.Set("X-Request-ID", wantID)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("rebalance: %d %s", rr.Code, rr.Body)
	}

	// Surface 1: the response header echoes the inbound ID.
	if got := rr.Header().Get("X-Request-ID"); got != wantID {
		t.Fatalf("X-Request-ID header = %q, want %q", got, wantID)
	}

	// Surfaces 2 and 3: the domain line and the rebalance's own request
	// line carry it (the earlier setup requests logged their own IDs).
	records := logLines(t, logBuf)
	domain := findLog(records, "rebalance")
	if domain == nil {
		t.Fatalf("no rebalance log line in %s", logBuf)
	}
	if domain["request_id"] != wantID {
		t.Fatalf("rebalance log line request_id = %v, want %q", domain["request_id"], wantID)
	}
	var reqLine map[string]any
	for _, rec := range records {
		if rec["msg"] == "http request" && rec["path"] == "/instances/corr/rebalance" {
			reqLine = rec
		}
	}
	if reqLine == nil {
		t.Fatalf("no request log line for the rebalance in %s", logBuf)
	}
	if reqLine["request_id"] != wantID {
		t.Fatalf("request log line request_id = %v, want %q", reqLine["request_id"], wantID)
	}

	// Surface 4: the instance/rebalance span is annotated with the ID.
	var span *obs.SpanData
	for i, sp := range rec.Spans() {
		if sp.Name == "instance/rebalance" {
			span = &rec.Spans()[i]
		}
	}
	if span == nil {
		t.Fatalf("no instance/rebalance span; spans: %+v", rec.Spans())
	}
	found := false
	for _, a := range span.Attrs {
		if a.Key == "request_id" && a.Value == wantID {
			found = true
		}
	}
	if !found {
		t.Fatalf("span lacks request_id=%q annotation: %+v", wantID, span.Attrs)
	}

	// Surface 5: the Chrome trace export of the same spans carries the ID
	// in the rebalance event's args.
	var trace bytes.Buffer
	if err := rec.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	found = false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "instance/rebalance" && ev.Args["request_id"] == wantID {
			found = true
		}
	}
	if !found {
		t.Fatalf("chrome trace export lacks an instance/rebalance event with request_id %q: %s",
			wantID, trace.String())
	}
}

// TestErrorBodyCarriesRequestID: every JSON error body names the request
// that produced it, agreeing with the response header — whether the ID was
// assigned fresh or honored from a well-formed inbound header, while a
// malformed inbound header is replaced rather than echoed.
func TestErrorBodyCarriesRequestID(t *testing.T) {
	h, _, _ := newCorrelationHandler(t, Config{})

	get := func(header string) (*httptest.ResponseRecorder, errorJSON) {
		t.Helper()
		req := httptest.NewRequest("GET", "/instances/nope", nil)
		if header != "" {
			req.Header.Set("X-Request-ID", header)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusNotFound {
			t.Fatalf("status %d, want 404", rr.Code)
		}
		var body errorJSON
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatalf("bad error body %s: %v", rr.Body, err)
		}
		return rr, body
	}

	// Assigned fresh: header and body agree on a valid generated ID.
	rr, body := get("")
	id := rr.Header().Get("X-Request-ID")
	if !obs.ValidRequestID(id) {
		t.Fatalf("generated X-Request-ID %q is not valid", id)
	}
	if body.RequestID != id {
		t.Fatalf("error body request_id = %q, header %q", body.RequestID, id)
	}

	// Honored: a well-formed inbound ID round-trips into the body.
	rr, body = get("gateway-7f.x_1")
	if rr.Header().Get("X-Request-ID") != "gateway-7f.x_1" || body.RequestID != "gateway-7f.x_1" {
		t.Fatalf("inbound ID not honored: header %q body %q",
			rr.Header().Get("X-Request-ID"), body.RequestID)
	}

	// Malformed: replaced with a fresh valid ID, never echoed.
	rr, body = get("bad id\nwith newline")
	id = rr.Header().Get("X-Request-ID")
	if !obs.ValidRequestID(id) || strings.Contains(id, "\n") {
		t.Fatalf("malformed inbound ID echoed: %q", id)
	}
	if body.RequestID != id {
		t.Fatalf("error body request_id = %q, header %q", body.RequestID, id)
	}
}

// Test499LogLineCarriesRequestID: a client disconnect mid-solve answers 499
// with the request ID present in the log line and the error body, so an
// operator can tell which caller hung up.
func Test499LogLineCarriesRequestID(t *testing.T) {
	h, _, logBuf := newCorrelationHandler(t, Config{})

	cfg := dataset.DefaultClustered()
	cfg.Communities = 2
	body := clusteredJSON(t, cfg)

	const wantID = "cancel-corr-7"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost,
		"/solve?algo=mincostflow&decompose=1", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("X-Request-ID", wantID)
	rr := httptest.NewRecorder()
	timer := time.AfterFunc(2*time.Millisecond, cancel)
	defer timer.Stop()
	h.ServeHTTP(rr, req)
	if rr.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want %d", rr.Code, statusClientClosedRequest)
	}

	var errBody errorJSON
	if err := json.Unmarshal(rr.Body.Bytes(), &errBody); err != nil {
		t.Fatalf("bad error body %s: %v", rr.Body, err)
	}
	if errBody.RequestID != wantID {
		t.Fatalf("499 body request_id = %q, want %q", errBody.RequestID, wantID)
	}

	recLine := findLog(logLines(t, logBuf), "http request")
	if recLine == nil {
		t.Fatalf("no request log line in %s", logBuf)
	}
	if status, _ := recLine["status"].(float64); int(status) != statusClientClosedRequest {
		t.Fatalf("logged status %v, want %d", recLine["status"], statusClientClosedRequest)
	}
	if recLine["request_id"] != wantID {
		t.Fatalf("499 log line request_id = %v, want %q", recLine["request_id"], wantID)
	}
}
