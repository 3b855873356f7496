// Package server exposes the GEACC solvers as a small JSON-over-HTTP
// service — the shape in which an EBSN platform would actually consume
// this library. Endpoints:
//
//	GET  /healthz            liveness probe
//	GET  /algorithms         available solver names
//	POST /solve?algo=&seed=  instance JSON -> matching JSON (+ metrics)
//	POST /trace              instance JSON -> greedy matching + its steps: every accept and conflict rejection
//	POST /report             {"instance":..., "matching":...} -> quality report
//	POST /validate           {"instance":..., "matching":...} -> feasibility verdict
//	GET  /metrics            Prometheus text: the metrics registry + SLO windows
//	GET  /debug/vars         expvar JSON: Go runtime vars (memstats, cmdline)
//
// Handlers are plain http.Handlers built on the standard library, with
// bounded request bodies and JSON error envelopes.
//
// # Observability
//
// New wraps the mux in a telemetry middleware that records, per endpoint,
// request counts labeled by status code, latency histograms, and an
// in-flight gauge — all into the process-global internal/obs registry,
// which GET /metrics serves as Prometheus text.
// DebugHandler additionally serves net/http/pprof under /debug/pprof/;
// geacc-server binds it to a separate, opt-in listener (-debug-addr) so
// profiling never shares a port with traffic. docs/OBSERVABILITY.md
// catalogs every exported metric and walks through a scrape session.
//
// # Cancellation
//
// /solve, /trace, /report and rebalance propagate the request context
// into the solver or the relaxation bound (core.SolveContext,
// core.PortfolioCtx, core.GreedyCtx, core.RelaxedUpperBoundCtx): when the
// client disconnects mid-solve, long MinCostFlow sweeps and exact searches
// abort at their next cancellation poll instead of burning the worker, and
// the aborted request is recorded with the non-standard status 499.
// GET /instances/{id}/stats solves nothing: it reads the arranger's kept
// relaxation bound, and only its extension of the kept union graph
// (core.Arranger.UnionRoots) polls the context, so a client gone before or
// during that scan gets 499 too.
package server
