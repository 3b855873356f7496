// Command benchmark measures the GEACC service end to end. For each
// workload it builds cmd/geacc-server from the checkout, sets a fresh server
// up several times, drives the last one from two closed-loop lanes with a
// seed-derived request stream, checks every answer against the inputs it
// generated, and prints the metrics BENCHMARK.json names. With -trace 1 it
// also replays the same inputs in-process through each layer's public
// functions and prints per-layer metrics. See README.md.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload solve-greedy --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --seed 1 --out results.json     # every workload
//	bash benchmark/run.sh --compare a.json,b.json c.json,d.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// runTimeout bounds one workload run after the build, well inside the
// 180 s a run may take.
const runTimeout = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line a run prints: the object the harness reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fileResult is one workload's entry in a -out results file, which
// -compare reads back.
type fileResult struct {
	Workload  string                     `json:"workload"`
	Seed      int64                      `json:"seed"`
	Trace     bool                       `json:"trace"`
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Digest    string                     `json:"digest"`
	Metrics   map[string]fileResultValue `json:"metrics"`
}

type fileResultValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

func defaultBuildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "workload to run; empty runs every workload")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 15, "run length at the reference commit; fixes each workload's request count")
	trace := fs.Int("trace", 0, "1: also replay the inputs in-process with per-layer spans and print per-layer metrics")
	out := fs.String("out", "", "also write the results to this JSON file")
	compare := fs.String("compare", "", "compare result files: -compare a.json[,a2.json] b.json[,b2.json]")
	root := fs.String("root", ".", "repository root (holds cmd/geacc-server and BENCHMARK.json)")
	buildDir := fs.String("build-dir", defaultBuildDir(), "directory for the server binary, run data and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "-compare wants the other side's files as one argument")
			return 2
		}
		return runCompare(filepath.Join(*root, "BENCHMARK.json"), strings.Split(*compare, ","),
			strings.Split(fs.Arg(0), ","), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "-trace is 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "-seconds must be positive")
		return 2
	}
	ws := workloads
	if *workloadName != "" {
		w, err := lookupWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		ws = []*workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(*buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	bin, err := buildServer(ctx, *root, *buildDir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, buildDir: *buildDir, serverBin: bin, log: stderr}
	outcomes, err := runAll(ctx, cfg, ws)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *out != "" {
		if err := writeResults(*out, cfg, outcomes); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	code := 0
	for _, o := range outcomes {
		printOutcome(stdout, o)
		for _, m := range o.msgs {
			fmt.Fprintf(stderr, "%s: check failed: %s\n", o.workload, m)
		}
		if !o.correct {
			code = 1
		}
	}
	// The harness reads the last line: one workload's result object.
	for _, o := range outcomes {
		b, err := json.Marshal(resultOf(o, cfg.trace))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	}
	return code
}

func runAll(ctx context.Context, cfg config, ws []*workload) ([]*outcome, error) {
	var outcomes []*outcome
	for _, w := range ws {
		wctx, cancel := context.WithTimeout(ctx, runTimeout)
		o, err := runWorkload(wctx, cfg, w)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		outcomes = append(outcomes, o)
	}
	return outcomes, nil
}

// resultOf is the harness's view of a run: the end-to-end metrics, or with
// trace the per-layer ones.
func resultOf(o *outcome, trace bool) result {
	defs, vals := endToEnd, o.e2e
	if trace {
		defs, vals = perLayer, o.layers
	}
	r := result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]resultValue{}}
	for _, d := range defs {
		r.Metrics[d.name] = resultValue{Value: vals[d.name].v, Unit: d.unit}
	}
	return r
}

// printOutcome prints every metric by name with its unit and sample count.
func printOutcome(w io.Writer, o *outcome) {
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d digest=%s\n",
		o.workload, o.correct, o.attempted, o.failed, o.digest)
	for _, set := range []struct {
		defs []metricDef
		vals map[string]value
	}{{endToEnd, o.e2e}, {perLayer, o.layers}} {
		if set.vals == nil {
			continue
		}
		for _, d := range set.defs {
			v := set.vals[d.name]
			extra := ""
			if v.samples > 0 {
				extra = fmt.Sprintf("  n=%d", v.samples)
			}
			if v.note != "" {
				extra += "  " + v.note
			}
			fmt.Fprintf(w, "%-36s %14.4f %-6s%s\n", d.name, v.v, d.unit, extra)
		}
	}
}

func writeResults(path string, cfg config, outcomes []*outcome) error {
	var rs []fileResult
	for _, o := range outcomes {
		fr := fileResult{Workload: o.workload, Seed: cfg.seed, Trace: cfg.trace, Correct: o.correct,
			Attempted: o.attempted, Failed: o.failed, Digest: o.digest, Metrics: map[string]fileResultValue{}}
		for _, set := range []struct {
			defs []metricDef
			vals map[string]value
		}{{endToEnd, o.e2e}, {perLayer, o.layers}} {
			for _, d := range set.defs {
				if v, ok := set.vals[d.name]; ok {
					fr.Metrics[d.name] = fileResultValue{Value: v.v, Unit: d.unit, Samples: v.samples, Note: v.note}
				}
			}
		}
		rs = append(rs, fr)
	}
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
