package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/encoding"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// heavyInstanceJSON builds an instance whose min-cost-flow solve takes long
// enough (tens of milliseconds) that concurrent requests genuinely overlap
// — the overload test needs real contention, not an instant solver.
func heavyInstanceJSON(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	const nv, nu = 30, 300
	events := make([]core.Event, nv)
	for v := range events {
		events[v] = core.Event{Cap: 1 + rng.Intn(8)}
	}
	users := make([]core.User, nu)
	for u := range users {
		users[u] = core.User{Cap: 1 + rng.Intn(3)}
	}
	matrix := make([][]float64, nv)
	for v := range matrix {
		matrix[v] = make([]float64, nu)
		for u := range matrix[v] {
			matrix[v][u] = rng.Float64()
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
	return buf.Bytes()
}

// newAdmissionServer builds the full handler with explicit admission
// limits and the admitHold hook, so tests can park admitted requests and
// observe shed behavior deterministically.
func newAdmissionServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	cfg.Logger = quietLogger()
	h, err := NewWithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// fillSlot posts one solve that parks inside the admission window (on
// cfg.admitHold) and returns once the slot is provably occupied.
func fillSlot(t *testing.T, srv *httptest.Server, wg *sync.WaitGroup) {
	t.Helper()
	before := admissionInflight.Value()
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(srv.URL+"/solve", "application/json", bytes.NewReader(instanceJSON(t)))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for admissionInflight.Value() <= before {
		if time.Now().After(deadline) {
			t.Fatal("parked solve never acquired its admission slot")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionShedQueueFull: with one slot held and queueing disabled, the
// next solve must come back 429 promptly — far inside the queue timeout —
// with Retry-After, the documented error envelope, and a shed-counter
// increment.
func TestAdmissionShedQueueFull(t *testing.T) {
	hold := make(chan struct{})
	srv := newAdmissionServer(t, Config{
		MaxInflight: 1, QueueDepth: -1, QueueTimeout: 5 * time.Second,
		admitHold: hold,
	})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(hold)
	fillSlot(t, srv, &wg)

	shedBefore := admissionShed("queue_full").Value()
	start := time.Now()
	resp, err := http.Post(srv.URL+"/solve", "application/json", bytes.NewReader(instanceJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()

	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("queue-full shed took %v; must return promptly, not wait out the queue timeout", elapsed)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var e errorJSON
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("429 body is not the error envelope: %s", body)
	}
	if e.Error == "" || e.RequestID == "" {
		t.Fatalf("429 envelope incomplete: %+v", e)
	}
	if got := admissionShed("queue_full").Value(); got != shedBefore+1 {
		t.Fatalf("geacc_admission_shed_total{reason=queue_full} = %d, want %d", got, shedBefore+1)
	}
}

// TestAdmissionShedTimeout: a queued request whose wait exceeds the queue
// timeout sheds as 429 with the timeout reason.
func TestAdmissionShedTimeout(t *testing.T) {
	hold := make(chan struct{})
	srv := newAdmissionServer(t, Config{
		MaxInflight: 1, QueueDepth: 4, QueueTimeout: 100 * time.Millisecond,
		admitHold: hold,
	})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(hold)
	fillSlot(t, srv, &wg)

	shedBefore := admissionShed("timeout").Value()
	start := time.Now()
	resp, err := http.Post(srv.URL+"/solve", "application/json", bytes.NewReader(instanceJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if elapsed < 100*time.Millisecond {
		t.Fatalf("timeout shed after %v, before the queue timeout", elapsed)
	}
	if got := admissionShed("timeout").Value(); got != shedBefore+1 {
		t.Fatalf("geacc_admission_shed_total{reason=timeout} = %d, want %d", got, shedBefore+1)
	}
}

// TestAdmissionGatesRebalance: the rebalance endpoint sits behind the same
// controller as /solve.
func TestAdmissionGatesRebalance(t *testing.T) {
	hold := make(chan struct{})
	srv := newAdmissionServer(t, Config{
		MaxInflight: 1, QueueDepth: -1,
		admitHold: hold,
	})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(hold)
	fillSlot(t, srv, &wg)

	resp, err := http.Post(srv.URL+"/instances/nope/rebalance", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	// Shed beats 404: admission runs before the body or the id is looked
	// at, so overload stays cheap.
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
}

// TestAdmissionGatesInstanceStats: GET /instances/{id}/stats solves a
// relaxation under the instance lock, so it is admitted like a solve — with
// the slot held and no queue it sheds as 429 + Retry-After, before the id
// is even looked up.
func TestAdmissionGatesInstanceStats(t *testing.T) {
	hold := make(chan struct{})
	srv := newAdmissionServer(t, Config{
		MaxInflight: 1, QueueDepth: -1,
		admitHold: hold,
	})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(hold)
	fillSlot(t, srv, &wg)

	shedBefore := admissionShed("queue_full").Value()
	resp, err := http.Get(srv.URL + "/instances/nope/stats")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := admissionShed("queue_full").Value(); got != shedBefore+1 {
		t.Fatalf("geacc_admission_shed_total{reason=queue_full} = %d, want %d", got, shedBefore+1)
	}
}

// TestReadyzReflectsAdmission: /readyz's load check reads the admission
// controller itself — saturated admission fails the probe, a freed slot
// passes it again.
func TestReadyzReflectsAdmission(t *testing.T) {
	hold := make(chan struct{})
	srv := newAdmissionServer(t, Config{
		MaxInflight: 1, QueueDepth: -1,
		admitHold: hold,
	})
	var wg sync.WaitGroup
	fillSlot(t, srv, &wg)

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated readyz: %d %s", resp.StatusCode, body)
	}
	var doc readyzResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc.Checks["load"], "overloaded") ||
		!strings.Contains(doc.Checks["load"], "max_inflight=1") {
		t.Fatalf("load check does not name the admission limits: %q", doc.Checks["load"])
	}

	close(hold)
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never recovered after the slot freed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOverloadShedsWhileAcceptedStayBounded hammers a 2-slot server with
// real solves and checks the overload contract end to end: some requests
// are shed as 429 + Retry-After, the rest succeed, and every accepted
// request finishes promptly (bounded by solve time, not by the pile-up).
func TestOverloadShedsWhileAcceptedStayBounded(t *testing.T) {
	srv := newAdmissionServer(t, Config{MaxInflight: 2, QueueDepth: -1})
	body := heavyInstanceJSON(t)

	const n = 32
	type result struct {
		status  int
		retry   string
		elapsed time.Duration
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			resp, err := http.Post(srv.URL+"/solve?algo=mincostflow", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			results[i] = result{resp.StatusCode, resp.Header.Get("Retry-After"), time.Since(start)}
		}(i)
	}
	wg.Wait()

	var accepted, shed int
	for i, r := range results {
		switch r.status {
		case http.StatusOK:
			accepted++
			if r.elapsed > 5*time.Second {
				t.Errorf("accepted request %d took %v; overload must not stretch accepted latency", i, r.elapsed)
			}
		case http.StatusTooManyRequests:
			shed++
			if r.retry == "" {
				t.Errorf("shed request %d has no Retry-After", i)
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, r.status)
		}
	}
	if accepted == 0 {
		t.Fatal("no request was accepted under overload")
	}
	if shed == 0 {
		t.Fatal("no request was shed: 32 concurrent solves against 2 slots with no queue must shed")
	}
	t.Logf("accepted=%d shed=%d", accepted, shed)
}
