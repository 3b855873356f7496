// Command geacc-load drives sustained HTTP load against a geacc-server and
// reports client-side latency quantiles, achieved throughput, and status
// accounting (shed 429s included). It is the measurement tool behind
// BENCH_server.json and make load-smoke / bench-server.
//
// Usage:
//
//	geacc-load -list
//	geacc-load -scenario solve-greedy -addr http://127.0.0.1:8080 \
//	           [-concurrency 8] [-warmup 2s] [-measure 10s] [-seed 1] [-out report.json]
//	geacc-load -scenario solve-greedy -open -rate 200        # open loop
//	geacc-load -pin BENCH_server.json                         # pin the standard suite
//	geacc-load -compare BENCH_server.json [-tol 0.20]         # gate against the pin
//
// With an empty -addr the tool self-hosts: it builds the full in-process
// server handler (ephemeral instances) on a loopback listener and loads
// that — the mode the repo's pinned snapshot and CI smoke use, so results
// do not depend on an externally managed process. The standard suite
// behind -pin/-compare runs the closed-loop lanes (solve-greedy,
// delta-mix, solve-repeat, solve-repeat-cold) plus an open-loop overload
// lane (overload-mincostflow) that self-hosts a deliberately tiny
// admission config and is gated on shed rate and accepted-request p99
// rather than raw throughput.
//
// Closed loop (default) runs -concurrency workers, each issuing its next
// request when the previous answer lands — throughput floats, latency is
// honest. Open loop (-open -rate R) fires on a fixed schedule regardless
// of completions — the shape that exposes queueing collapse and admission
// shedding. See docs/LOAD.md for the report schema.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/load"
	"github.com/ebsnlab/geacc/internal/server"
)

func main() {
	addr := flag.String("addr", "", "base URL of the server under test; empty self-hosts an in-process server")
	scenario := flag.String("scenario", "solve-greedy", "workload scenario (see -list)")
	list := flag.Bool("list", false, "list the builtin scenarios and exit")
	open := flag.Bool("open", false, "open loop: fire on the -rate schedule regardless of completions")
	rate := flag.Float64("rate", 100, "open-loop target request rate per second")
	concurrency := flag.Int("concurrency", 8, "closed-loop workers; open-loop outstanding-request cap")
	warmup := flag.Duration("warmup", 2*time.Second, "unrecorded warmup phase")
	measure := flag.Duration("measure", 10*time.Second, "recorded measure phase")
	seed := flag.Int64("seed", 1, "workload seed: same scenario+seed+concurrency issues the same requests")
	shardFlags := decomp.BindFlags(flag.CommandLine, "approx-shard", "shard-max-area", "shard-strategy")
	out := flag.String("out", "", "write the JSON report here; empty prints only the summary")
	pin := flag.String("pin", "", "run the standard suite and write its snapshot to this path (BENCH_server.json)")
	compare := flag.String("compare", "", "run the standard suite and compare against this snapshot; exit 1 on regression")
	tol := flag.Float64("tol", 0.20, "with -compare, allowed relative regression in p99 and achieved throughput")
	flag.Parse()

	if *list {
		for _, sc := range load.Builtins() {
			fmt.Printf("%-20s %-6s %s\n", sc.Name, sc.Kind, sc.Description)
		}
		return
	}

	opt := load.Options{
		OpenLoop:    *open,
		RatePerSec:  *rate,
		Concurrency: *concurrency,
		Warmup:      *warmup,
		Measure:     *measure,
		Seed:        *seed,
	}

	if *pin != "" || *compare != "" {
		if err := runSuite(*addr, opt, *pin, *compare, *tol); err != nil {
			fatal(err)
		}
		return
	}

	base := *addr
	if base == "" {
		handler, err := server.NewWithConfig(server.Config{})
		if err != nil {
			fatal(err)
		}
		ts := httptest.NewServer(handler)
		defer ts.Close()
		base = ts.URL
		fmt.Fprintf(os.Stderr, "self-hosting in-process server at %s\n", base)
	}
	opt.BaseURL = base

	sc, err := load.Builtin(*scenario)
	if err != nil {
		fatal(err)
	}
	// Unset shard tuning stays zero, which the query omits: the server's
	// own default then applies.
	spec, err := shardFlags()
	if err != nil {
		fatal(err)
	}
	if sh := spec.Shard; sh != nil {
		sc.ApproxShard = true
		sc.ShardMaxArea = sh.MaxArea
		sc.ShardStrategy = string(sh.Strategy)
	}
	opt.Scenario = sc
	rep, err := load.Run(context.Background(), opt)
	if err != nil {
		fatal(err)
	}
	fmt.Fprint(os.Stderr, rep.Format())
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	} else {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// suiteLane is one entry of the standard pinned suite: a builtin scenario
// plus the loop shape, gate, and (when self-hosting) the server config it
// runs against.
type suiteLane struct {
	scenario    string
	open        bool
	rate        float64 // open-loop offered rate
	concurrency int     // 0 keeps the -concurrency flag's value
	gate        string  // ServerBenchPoint.Gate; "" is the latency gate
	cfg         server.Config
}

// suite is the standard pinned set. The closed-loop lanes gate latency and
// throughput; solve-repeat vs solve-repeat-cold pins the memo-cache hit
// path against its cold baseline. The overload lane self-hosts a
// deliberately tiny admission config (2 inflight, no queue) and offers
// more load than that capacity, so its pinned numbers are the shed rate
// and the accepted-request p99 — the axes its "overload" gate compares.
var suite = []suiteLane{
	{scenario: "solve-greedy"},
	{scenario: "delta-mix"},
	{scenario: "solve-repeat"},
	{scenario: "solve-repeat-cold"},
	{
		scenario: "overload-mincostflow",
		open:     true, rate: 60, concurrency: 16,
		gate: "overload",
		cfg:  server.Config{MaxInflight: 2, QueueDepth: -1},
	},
}

// runSuite measures the standard suite and either pins the snapshot or
// gates against a committed one. With an empty addr every lane self-hosts
// its own in-process server (fresh state, per-lane admission config); with
// an explicit addr all lanes share it and the overload lane measures that
// server's admission config instead of the suite's tiny one.
func runSuite(addr string, opt load.Options, pinPath, comparePath string, tol float64) error {
	var points []load.ServerBenchPoint
	for _, lane := range suite {
		sc, err := load.Builtin(lane.scenario)
		if err != nil {
			return err
		}
		laneOpt := opt
		laneOpt.Scenario = sc
		laneOpt.OpenLoop = lane.open
		laneOpt.RatePerSec = lane.rate
		if lane.concurrency > 0 {
			laneOpt.Concurrency = lane.concurrency
		}
		laneOpt.BaseURL = addr
		var ts *httptest.Server
		if addr == "" {
			handler, err := server.NewWithConfig(lane.cfg)
			if err != nil {
				return err
			}
			ts = httptest.NewServer(handler)
			laneOpt.BaseURL = ts.URL
		}
		rep, err := load.Run(context.Background(), laneOpt)
		if ts != nil {
			ts.Close()
		}
		if err != nil {
			return err
		}
		fmt.Fprint(os.Stderr, rep.Format())
		point := rep.Point()
		point.Gate = lane.gate
		points = append(points, point)
	}
	if pinPath != "" {
		f, err := os.Create(pinPath)
		if err != nil {
			return err
		}
		if err := load.WriteServerBenchJSON(f, points); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pinned %d points to %s\n", len(points), pinPath)
		return nil
	}
	old, err := load.ReadServerBenchFile(comparePath)
	if err != nil {
		return err
	}
	deltas, onlyOld, onlyNew := load.CompareServerBench(old, points)
	report, regressed := load.FormatServerComparison(deltas, onlyOld, onlyNew, tol)
	fmt.Print(report)
	if len(regressed) > 0 {
		return fmt.Errorf("load: %d scenario(s) regressed beyond %.0f%%: %v", len(regressed), tol*100, regressed)
	}
	fmt.Printf("no scenario regressed beyond %.0f%%\n", tol*100)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "geacc-load:", err)
	os.Exit(1)
}
