package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"github.com/ebsnlab/geacc/internal/buildinfo"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/partition"
	"github.com/ebsnlab/geacc/internal/report"
)

// MaxRequestBytes bounds request bodies; larger instances should use the
// CLI tools.
const MaxRequestBytes = 64 << 20

// statusClientClosedRequest mirrors nginx's non-standard 499: the client
// disconnected (or timed out) before the solver finished, and the request
// context's cancellation aborted the run.
const statusClientClosedRequest = 499

// Config tunes the service handler. The zero value is valid: default
// logger, no persistence, default snapshot cadence.
type Config struct {
	// Logger receives request and domain logs; nil means slog.Default().
	Logger *slog.Logger
	// DataDir enables persistence: every named instance gets a write-ahead
	// op log and periodic snapshots under this directory, and NewWithConfig
	// replays whatever it finds there before serving. Empty means instances
	// are ephemeral (they die with the process).
	DataDir string
	// SnapshotEvery is how many logged ops an instance accumulates before
	// its log is folded into a fresh snapshot; <= 0 means
	// DefaultSnapshotEvery.
	SnapshotEvery int
	// LazyReplay moves startup replay off the constructor and into a
	// background goroutine: the handler is returned (and can listen)
	// immediately, /readyz answers 503 until every persisted instance has
	// been replayed, and the instance endpoints refuse with 503 +
	// Retry-After in the meantime. geacc-server enables it so a process
	// restart behind a load balancer starts failing its readiness probe
	// instead of its TCP connects. The default (false) replays
	// synchronously, which is what tests and embedders usually want.
	LazyReplay bool
	// MaxInflight bounds the solver-heavy requests (/solve, /trace,
	// /report, rebalances) running concurrently; <= 0 means
	// DefaultMaxInflight. The next QueueDepth requests wait up to
	// QueueTimeout for a slot; beyond that the service sheds with 429 +
	// Retry-After. /readyz reports overload from the same limits.
	MaxInflight int
	// QueueDepth bounds how many solver requests may wait for a slot.
	// 0 means DefaultQueueDepth; negative disables queueing (overload
	// sheds as soon as every slot is busy).
	QueueDepth int
	// QueueTimeout is the longest a queued solver request waits before it
	// is shed; <= 0 means DefaultQueueTimeout.
	QueueTimeout time.Duration
	// SolveCacheEntries bounds the content-addressed /solve memo cache
	// (see internal/solvecache), the service's only solve cache: 0 means
	// DefaultSolveCacheEntries, negative disables it and the per-instance
	// warm-flow caches.
	SolveCacheEntries int
	// Shard, when non-nil, makes approximate sharding of giant components
	// (internal/partition) the service default for /solve and rebalances
	// (geacc-server -approx-shard). Requests can still opt out with
	// ?approx_shard=0 or override the tuning with the shard_* params; zero
	// fields take the partition defaults. Nil means sharding only runs when
	// a request asks with ?approx_shard=1.
	Shard *partition.Options

	// replayHold, when non-nil with LazyReplay, blocks the background
	// replay until the channel is closed — a test hook for observing the
	// not-yet-ready window deterministically.
	replayHold chan struct{}
	// admitHold, when non-nil, parks every admitted solver request until
	// the channel is closed — a test hook for filling the admission window
	// and observing shed behavior deterministically.
	admitHold chan struct{}
}

// NewWithConfig builds the full service handler, wrapped in the metrics
// middleware: the stateless solver endpoints plus the long-lived
// /instances registry, replaying any persisted instances found under
// cfg.DataDir before it returns (or, with cfg.LazyReplay, in the
// background while /readyz reports not-ready). It also serves the
// Prometheus text exposition at GET /metrics and the expvar page (Go
// runtime vars) at GET /debug/vars; the heavier pprof surface is only on
// DebugHandler. Without a DataDir instances are ephemeral and it cannot
// fail.
func NewWithConfig(cfg Config) (http.Handler, error) {
	h, _, err := newHandler(cfg)
	return h, err
}

// newHandler is NewWithConfig plus the service it wired — the in-package
// entry tests use to reach the rolling windows and readiness state behind
// the handler.
func newHandler(cfg Config) (http.Handler, *service, error) {
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	svc, err := newService(log, cfg)
	if err != nil {
		return nil, nil, err
	}
	setBuildInfoMetric()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", handleHealthz)
	mux.HandleFunc("GET /readyz", svc.handleReadyz)
	mux.HandleFunc("GET /statusz", svc.handleStatusz)
	mux.HandleFunc("GET /version", handleVersion)
	mux.HandleFunc("GET /algorithms", handleAlgorithms)
	mux.HandleFunc("POST /solve", svc.handleSolve)
	mux.HandleFunc("POST /trace", svc.handleTrace)
	mux.HandleFunc("POST /report", svc.handleReport)
	mux.HandleFunc("POST /validate", handleValidate)
	mux.HandleFunc("GET /metrics", svc.handleMetrics)
	mux.Handle("GET /debug/vars", expvar.Handler())
	svc.register(mux)
	return withMetrics(withLogging(mux, log), svc), svc, nil
}

// Process-identity metrics: a constant-1 gauge whose labels carry the build
// identity (join on it to know which version served a scrape) and the
// process uptime, refreshed at scrape time.
var (
	buildInfoOnce sync.Once
	processUptime = obs.Default().FloatGauge("geacc_process_uptime_seconds")
)

func setBuildInfoMetric() {
	buildInfoOnce.Do(func() {
		bi := buildinfo.Get()
		obs.Default().Gauge(obs.Label("geacc_build_info",
			"version", bi.Version, "revision", bi.Revision, "goversion", bi.GoVersion)).Set(1)
	})
}

// handleMetrics serves the obs registry in the Prometheus text exposition
// format — the scrape target for Prometheus-compatible collectors. The
// registry families are followed by the service's rolling SLO windows
// (geacc_http_window_seconds, geacc_solve_window_seconds).
func (s *service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	processUptime.Set(buildinfo.Uptime().Seconds())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default().WritePrometheus(w)
	_ = obs.WritePrometheusWindows(w, s.windowsSnapshot())
}

// errorJSON is the error envelope. RequestID echoes the X-Request-ID the
// middleware assigned, so a client-side error report names the exact
// request to grep the server logs for.
type errorJSON struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorJSON{
		Error:     err.Error(),
		RequestID: obs.RequestIDFrom(r.Context()),
	})
}

// solveErrorStatus maps a solver error to an HTTP status: context
// cancellation (the client went away) and deadline expiry report as 499,
// an exact search over decomp.MaxExactArea or decomp.MaxExactNodes as 422,
// anything else as fallback.
func solveErrorStatus(err error, fallback int) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return statusClientClosedRequest
	}
	if gerr := (*decomp.ExactGateError)(nil); errors.As(err, &gerr) || errors.Is(err, core.ErrNodeLimit) {
		return http.StatusUnprocessableEntity
	}
	return fallback
}

func handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, map[string]string{"status": "ok"})
}

func handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, map[string]any{
		"algorithms": append(core.SolverNames(), "portfolio"),
	})
}

// SolveResponse is the /solve payload, for clients to decode;
// appendSolveResponse writes its bytes. Diagnostics is present only when
// the request asked for it with ?diag=1.
type SolveResponse struct {
	Matching    encoding.MatchingJSON `json:"matching"`
	Algo        string                `json:"algo"`
	Seconds     float64               `json:"seconds"`
	Events      int                   `json:"events"`
	Users       int                   `json:"users"`
	Diagnostics *core.Diagnostics     `json:"diagnostics,omitempty"`
}

func (s *service) handleSolve(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	in, simInfo, err := encoding.DecodeInstanceMeta(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	// ParseQuery validates the algorithm before the first window
	// observation: only registry names may mint an algo-labeled series.
	spec, err := decomp.ParseQuery(r.URL.Query(), s.defaults)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}

	// The request context travels into the solver, so a client disconnect
	// cancels the solve. A cache hit serves the stored result — matching,
	// diagnostics, even the original timing — verbatim: by construction
	// bit-for-bit what a fresh solve would produce.
	start := time.Now()
	res, err := decomp.Run(r.Context(), in, spec, decomp.Env{
		Cache:          s.solveCache,
		SimID:          simInfo.ID(),
		ExactAreaLimit: decomp.MaxExactArea,
	})
	if err == nil && res.Cached { // nothing solved: no window observation
		requestLogger(r).Info("solve cache hit",
			"algo", spec.Algo, "events", in.NumEvents(), "users", in.NumUsers())
		writeSolveResponse(w, r, in, spec.Algo, res)
		return
	}
	// The solver window tracks wall-clock and failures (gate, solver
	// error, infeasible result) per algorithm.
	s.solveWindow(spec.Algo).Observe(time.Since(start).Seconds(), err != nil)
	if err != nil {
		writeError(w, r, solveErrorStatus(err, http.StatusInternalServerError), err)
		return
	}

	m := res.M
	logAttrs := []any{
		"algo", spec.Algo, "events", in.NumEvents(), "users", in.NumUsers(),
		"pairs", m.Size(), "max_sum", m.MaxSum(), "seconds", res.Elapsed.Seconds(),
	}
	if d := res.Diag; d != nil {
		logAttrs = append(logAttrs, "gap", d.Gap, "relaxed_upper_bound", d.RelaxedUpperBound)
	}
	requestLogger(r).Info("solve", logAttrs...)
	writeSolveResponse(w, r, in, spec.Algo, res)
}

func writeSolveResponse(w http.ResponseWriter, r *http.Request, in *core.Instance, algo string, res *decomp.Result) {
	writeResponse(w, r, http.StatusOK, func(b []byte) ([]byte, error) {
		return appendSolveResponse(b, in, algo, res)
	})
}

// TraceStepJSON is one serialized greedy decision. The /trace payload is
// {"matching": ..., "steps": [...]}: the greedy arrangement plus every
// heap-pop decision in order (the paper's Example 3 narrative, as data).
type TraceStepJSON struct {
	V        int     `json:"v"`
	U        int     `json:"u"`
	Sim      float64 `json:"sim"`
	Accepted bool    `json:"accepted"`
	Reason   string  `json:"reason,omitempty"`
}

func (s *service) handleTrace(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	in, err := encoding.DecodeInstance(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "steps":
		// The classic decision log below.
	case "chrome":
		handleChromeTrace(w, r, in)
		return
	default:
		writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("server: unknown trace format %q (steps or chrome)", format))
		return
	}
	var steps []TraceStepJSON
	m, err := core.GreedyCtx(r.Context(), in, core.GreedyOptions{Trace: func(s core.TraceStep) {
		steps = append(steps, TraceStepJSON{
			V: s.V, U: s.U, Sim: s.Sim, Accepted: s.Accepted, Reason: s.Reason,
		})
	}})
	if err != nil {
		writeError(w, r, solveErrorStatus(err, http.StatusInternalServerError), err)
		return
	}
	if err := core.Validate(in, m); err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	writeResponse(w, r, http.StatusOK, func(b []byte) ([]byte, error) {
		return appendTraceResponse(b, m, steps)
	})
}

// handleChromeTrace runs the requested registry solver (default greedy)
// through decomp.Run with a span recorder attached — uncached, under the
// same exact area gate and node budget as /solve — and answers with the
// spans in Chrome trace-event JSON, loadable as-is in Perfetto
// (ui.perfetto.dev) or chrome://tracing. The portfolio is refused: its
// members race, so its trace is not one solve's.
func handleChromeTrace(w http.ResponseWriter, r *http.Request, in *core.Instance) {
	algo := r.URL.Query().Get("algo")
	if algo == "" {
		algo = "greedy"
	}
	if err := core.LookupSolver(algo); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	rec := obs.NewRecorder()
	ctx := obs.ContextWithRecorder(r.Context(), rec)
	spec := decomp.Spec{Algo: algo, Seed: 1, NodeLimit: decomp.MaxExactNodes}
	if _, err := decomp.Run(ctx, in, spec, decomp.Env{ExactAreaLimit: decomp.MaxExactArea}); err != nil {
		writeError(w, r, solveErrorStatus(err, http.StatusInternalServerError), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// The export's otherData carries the request ID, so a saved trace file
	// still names the request (and its log lines) it came from.
	meta := map[string]string{}
	if id := obs.RequestIDFrom(ctx); id != "" {
		meta["request_id"] = id
	}
	_ = obs.WriteChromeTraceMeta(w, rec.Spans(), meta)
}

// handleVersion answers GET /version with the binary's build identity.
func handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, buildinfo.Get())
}

// pairDoc is the {"instance":..., "matching":...} request body shared by
// /report and /validate.
type pairDoc struct {
	Instance json.RawMessage       `json:"instance"`
	Matching encoding.MatchingJSON `json:"matching"`
}

func decodePair(w http.ResponseWriter, r *http.Request) (*core.Instance, *core.Matching, bool) {
	var doc pairDoc
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("server: %w", err))
		return nil, nil, false
	}
	in, err := encoding.DecodeInstance(bytes.NewReader(doc.Instance))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return nil, nil, false
	}
	m, err := encoding.NewMatching(doc.Matching.Pairs, in.NumEvents(), in.NumUsers())
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return nil, nil, false
	}
	return in, m, true
}

func (s *service) handleReport(w http.ResponseWriter, r *http.Request) {
	release, admitted := s.admit(w, r)
	if !admitted {
		return
	}
	defer release()
	in, m, ok := decodePair(w, r)
	if !ok {
		return
	}
	skipBound := r.URL.Query().Get("bound") == "false"
	rep, err := report.Build(r.Context(), in, m, skipBound)
	if err != nil {
		writeError(w, r, solveErrorStatus(err, http.StatusUnprocessableEntity), err)
		return
	}
	writeJSON(w, r, rep)
}

// ValidateResponse is the /validate payload.
type ValidateResponse struct {
	Feasible bool    `json:"feasible"`
	Reason   string  `json:"reason,omitempty"`
	MaxSum   float64 `json:"max_sum"`
	Pairs    int     `json:"pairs"`
}

func handleValidate(w http.ResponseWriter, r *http.Request) {
	in, m, ok := decodePair(w, r)
	if !ok {
		return
	}
	resp := ValidateResponse{Feasible: true, MaxSum: m.MaxSum(), Pairs: m.Size()}
	if err := core.Validate(in, m); err != nil {
		resp.Feasible = false
		resp.Reason = err.Error()
	}
	writeJSON(w, r, resp)
}
