package server

import (
	"context"
	"expvar"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/ebsnlab/geacc/internal/obs"
)

// knownPaths are the routes metrics may label. Anything else is folded
// into "other" (instance routes fold to their {id} template first, in
// metricPath) so an attacker probing random URLs cannot grow the metric
// namespace without bound.
var knownPaths = map[string]bool{
	"/healthz":    true,
	"/readyz":     true,
	"/statusz":    true,
	"/version":    true,
	"/algorithms": true,
	"/solve":      true,
	"/trace":      true,
	"/report":     true,
	"/validate":   true,
	"/metrics":    true,
	"/debug/vars": true,
	"/instances":  true,
}

// instanceOps are the sub-routes under /instances/{id}/.
var instanceOps = map[string]bool{
	"events":    true,
	"users":     true,
	"cancel":    true,
	"rebalance": true,
	"stats":     true,
}

// metricPath folds a request path into a bounded label value: known routes
// keep their path, instance routes collapse to their route template (the
// id segment is unbounded client input), everything else is "other".
func metricPath(p string) string {
	if knownPaths[p] {
		return p
	}
	if rest, ok := strings.CutPrefix(p, "/instances/"); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			if op := rest[i+1:]; instanceOps[op] {
				return "/instances/{id}/" + op
			}
			return "other"
		}
		if rest != "" {
			return "/instances/{id}"
		}
	}
	return "other"
}

// telemetryPaths are scraped by dashboards and load balancers on a timer;
// their request logs go out at Debug so a healthy system's log stream is
// about solves, not about being watched.
var telemetryPaths = map[string]bool{
	"/healthz":    true,
	"/readyz":     true,
	"/statusz":    true,
	"/metrics":    true,
	"/debug/vars": true,
}

// statusWriter captures the status code a handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// httpInflight counts requests currently inside the handler stack. The
// readiness probe reads it to report overload before a load balancer piles
// more work onto a saturated process.
var httpInflight = obs.Default().Gauge("geacc_http_inflight")

// withMetrics wraps a handler with the HTTP telemetry layer: per-endpoint
// request counts labeled by status code (geacc_http_requests_total),
// per-endpoint latency histograms (geacc_http_request_seconds), the
// in-flight gauge (geacc_http_inflight), and the service's rolling SLO
// windows (p50/p90/p99 over 1m/5m/15m, served by /statusz and /metrics).
// See docs/OBSERVABILITY.md.
func withMetrics(next http.Handler, svc *service) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := metricPath(r.URL.Path)
		httpInflight.Add(1)
		defer httpInflight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start).Seconds()
		code := sw.status
		if code == 0 {
			code = http.StatusOK
		}
		reg := obs.Default()
		reg.Counter(obs.Label("geacc_http_requests_total",
			"path", path, "code", strconv.Itoa(code))).Inc()
		reg.Histogram(obs.Label("geacc_http_request_seconds", "path", path),
			obs.DefaultLatencyBuckets).Observe(elapsed)
		// Window error rates track server-side failures: a 4xx is the
		// client's problem, a 5xx burns the error budget.
		svc.httpWindow(path).Observe(elapsed, code >= 500)
	})
}

type loggerKey struct{}

// requestLogger returns the structured logger withLogging stored on the
// request context; handlers use it for domain events (solve summaries) so
// those lines carry the same handler/format configuration as request logs.
func requestLogger(r *http.Request) *slog.Logger {
	if log, ok := r.Context().Value(loggerKey{}).(*slog.Logger); ok {
		return log
	}
	return slog.Default()
}

// withLogging wraps a handler with request correlation and structured
// request logging. Every request gets a request ID — a well-formed inbound
// X-Request-ID is honored (so a gateway's ID survives the hop), anything
// else gets a fresh one — echoed on the X-Request-ID response header,
// attached to the request context (obs.RequestIDFrom), and stamped onto
// the per-request logger, so the request log line, every domain line a
// handler emits through requestLogger, every obs.StartSpan span, and every
// JSON error body carry the same ID. One log/slog record goes out per
// request (method, path, status, duration, body size). Telemetry endpoints
// (health checks, metric scrapes) log at Debug, everything else at Info;
// server-side failures escalate to Warn/Error so a text-level=info
// deployment still surfaces them — including the 499 line a mid-solve
// client disconnect leaves behind.
func withLogging(next http.Handler, log *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		reqLog := log.With(slog.String("request_id", id))
		ctx := obs.ContextWithRequestID(r.Context(), id)
		ctx = context.WithValue(ctx, loggerKey{}, reqLog)
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		code := sw.status
		if code == 0 {
			code = http.StatusOK
		}
		level := slog.LevelInfo
		switch {
		case code >= 500:
			level = slog.LevelError
		case code >= 400:
			level = slog.LevelWarn
		case telemetryPaths[r.URL.Path]:
			level = slog.LevelDebug
		}
		reqLog.LogAttrs(r.Context(), level, "http request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", code),
			slog.Float64("seconds", time.Since(start).Seconds()),
			slog.Int64("request_bytes", r.ContentLength),
		)
	})
}

// DebugHandler serves the full diagnostics surface: expvar (Go's runtime
// vars) at /debug/vars and the net/http/pprof profiles
// under /debug/pprof/. geacc-server binds it to a separate listener via
// the -debug-addr flag, keeping profiling endpoints off the traffic port;
// the main handler exposes only the read-cheap /debug/vars.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
