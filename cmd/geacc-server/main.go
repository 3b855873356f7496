// Command geacc-server serves the GEACC solvers over JSON/HTTP: stateless
// one-shot solves at /solve plus long-lived named arrangement instances at
// /instances (create once, stream arrival/cancellation deltas, rebalance
// incrementally).
//
// Usage:
//
//	geacc-server -addr :8080 [-data-dir ./data] [-snapshot-every 256]
//	             [-max-inflight 64] [-queue-depth 256] [-queue-timeout 2s]
//	             [-solve-cache-entries 512] [-debug-addr :6060] [-log-format json]
//
//	curl localhost:8080/algorithms
//	curl -XPOST --data-binary @instance.json 'localhost:8080/solve?algo=greedy'
//	curl -XPOST -d '{"id":"prod","sim":"euclidean","dim":2,"max_t":10}' localhost:8080/instances
//	curl -XPOST -d '{"attrs":[1,2],"cap":3}' localhost:8080/instances/prod/events
//	curl -XPOST -d '{"attrs":[1,1],"cap":1}' localhost:8080/instances/prod/users
//	curl -XPOST 'localhost:8080/instances/prod/rebalance?scope=dirty'
//	curl localhost:8080/instances/prod
//	curl localhost:8080/instances/prod/stats   # WAL drift, gap, op counts
//	curl localhost:8080/healthz                # liveness
//	curl localhost:8080/readyz                 # readiness (503 during replay)
//	curl localhost:8080/statusz                # build, uptime, SLO windows
//	curl localhost:8080/version                # build identity
//	curl localhost:8080/metrics                # Prometheus text exposition
//	curl localhost:8080/debug/vars             # Go runtime vars (expvar: memstats, cmdline)
//	curl localhost:6060/debug/pprof/           # profiles (only with -debug-addr)
//
// With -data-dir, every instance delta is write-ahead logged (and
// periodically snapshotted) under that directory, and a restarted server
// replays each instance to its exact pre-crash arrangement before
// listening. Without it, instances are ephemeral. See docs/SERVICE.md for
// the full API and file-format contract.
//
// The main listener always serves the solver endpoints plus the metric
// surfaces: Prometheus text at /metrics and Go's runtime vars (expvar
// JSON) at /debug/vars.
// Requests are logged through log/slog (-log-level, -log-format; json
// emits one object per line for log pipelines). Passing -debug-addr
// starts a second, diagnostics-only listener with expvar and
// net/http/pprof — keep it bound to localhost or an internal interface;
// profiling endpoints are not meant for public traffic. See
// internal/server for the endpoint contract and docs/OBSERVABILITY.md for
// the metric catalog and example sessions.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"github.com/ebsnlab/geacc/internal/buildinfo"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	debugAddr := flag.String("debug-addr", "",
		"optional diagnostics listen address (expvar + pprof); empty disables")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	dataDir := flag.String("data-dir", "",
		"persist named instances (op logs + snapshots) under this directory; empty keeps them in memory")
	snapshotEvery := flag.Int("snapshot-every", server.DefaultSnapshotEvery,
		"with -data-dir, fold an instance's op log into a snapshot every N ops")
	maxInflight := flag.Int("max-inflight", server.DefaultMaxInflight,
		"solver requests (/solve, /trace, /report, rebalances) running at once; excess queues, then sheds 429")
	queueDepth := flag.Int("queue-depth", server.DefaultQueueDepth,
		"solver requests allowed to wait for a slot; beyond this the server sheds 429 immediately (negative disables queueing)")
	queueTimeout := flag.Duration("queue-timeout", server.DefaultQueueTimeout,
		"longest a queued solver request waits before it is shed with 429")
	solveCacheEntries := flag.Int("solve-cache-entries", server.DefaultSolveCacheEntries,
		"entries in the content-addressed /solve memo cache, the only solve cache (negative disables it and the per-instance warm-flow caches)")
	shardFlags := decomp.BindFlags(flag.CommandLine,
		"approx-shard", "shard-max-area", "shard-strategy", "shard-drift-budget")
	showVersion := flag.Bool("version", false, "print the build identity and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.Get())
		return
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		obs.MustLogger(os.Stderr).Error("bad logging flags", "error", err)
		os.Exit(2)
	}

	spec, err := shardFlags()
	if err != nil {
		logger.Error("bad shard flags", "error", err)
		os.Exit(2)
	}

	// Replay runs lazily: the listener comes up immediately and /readyz
	// answers 503 until every persisted instance is back, so a restart
	// behind a load balancer fails its readiness probe instead of its TCP
	// connects while a large op log replays.
	handler, err := server.NewWithConfig(server.Config{
		Logger:        logger,
		DataDir:       *dataDir,
		SnapshotEvery: *snapshotEvery,
		LazyReplay:    true,
		MaxInflight:   *maxInflight,
		QueueDepth:    *queueDepth,
		QueueTimeout:  *queueTimeout,

		SolveCacheEntries: *solveCacheEntries,
		Shard:             spec.Shard,
	})
	if err != nil {
		logger.Error("startup failed", "error", err)
		os.Exit(1)
	}
	logger.Info("starting", "version", buildinfo.Get().String())

	if *debugAddr != "" {
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           server.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("debug listener starting (expvar + pprof)", "addr", *debugAddr)
			// A failed debug listener must not take the traffic port down
			// with it; log and keep serving.
			logger.Error("debug listener exited", "error", dbg.ListenAndServe())
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      10 * time.Minute, // min-cost flow on large instances is slow
	}
	logger.Info("listening", "addr", *addr)
	logger.Error("server exited", "error", srv.ListenAndServe())
	os.Exit(1)
}
