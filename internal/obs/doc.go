// Package obs is the repo's zero-dependency observability layer: a
// process-global metrics registry rendered as Prometheus text, plus a
// lightweight Span/Recorder tracing API the solvers emit
// into. Everything here is built on the standard library only — no
// Prometheus client, no OpenTelemetry — so the solver packages stay
// dependency-free while still exposing a production telemetry surface.
//
// # Metrics
//
// Three instrument kinds cover the solver and server workloads:
//
//   - Counter: a monotonically increasing int64 (events, iterations, hits).
//   - Gauge: an int64 that can move both ways (in-flight requests).
//   - Histogram: observations bucketed under fixed upper bounds, plus the
//     total count and sum — enough to derive rates, averages, and
//     approximate quantiles. DefaultLatencyBuckets spans 100µs..60s, the
//     range solver latencies actually occupy (greedy in microseconds,
//     min-cost flow and exact search up to minutes).
//
// Instruments are get-or-create by name via a Registry: the first call
// registers, later calls return the same instrument, so packages can
// declare metrics as package-level vars without init-order coordination.
// Labels are encoded into the metric name with Label, Prometheus-style:
//
//	obs.Default().Counter(obs.Label("geacc_solve_total", "algo", "greedy"))
//	// -> geacc_solve_total{algo=greedy}
//
// The process-global registry (Default) renders itself as Prometheus text
// (Registry.WritePrometheus); geacc-server serves it at GET /metrics.
// docs/OBSERVABILITY.md is the operator-facing catalog of every metric
// the repo exports.
//
// All instruments are safe for concurrent use: counters and gauges are
// single atomics, histograms use one atomic per bucket and a CAS loop for
// the float64 sum, and the registry itself takes an RWMutex only on the
// get-or-create path (callers are expected to look instruments up once
// and hold the pointer on hot paths).
//
// # Tracing
//
// Recorder collects Spans: named wall-clock intervals with optional
// key/value annotations. The API is nil-safe end to end —
//
//	sp := obs.RecorderFrom(ctx).Start("solve/greedy")
//	defer sp.End()
//	sp.Annotate("events", nv)
//
// costs nothing but a few nil checks when no recorder is attached, so
// instrumentation points never need to guard themselves. Attach a
// recorder to a context with ContextWithRecorder; core.SolveContext picks
// it up and emits one span per solve with the instance shape and outcome
// annotated. Recorders cap retained spans (DefaultSpanLimit) and count
// what they drop, so a long-lived recorder cannot grow without bound.
package obs
