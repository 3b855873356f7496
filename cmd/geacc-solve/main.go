// Command geacc-solve reads a GEACC instance (JSON, see internal/encoding)
// and prints the arrangement computed by the chosen algorithm.
//
// Usage:
//
//	geacc-gen -kind synthetic -events 20 -users 100 -out instance.json
//	geacc-solve -in instance.json -algo greedy
//	geacc-solve -in instance.json -algo mincostflow -format csv -out matching.csv
//	geacc-solve -in instance.json -algo exact -diag -trace-out trace.json
//	geacc-solve -in clustered.json -algo greedy -decompose
//	geacc-solve -in bridged.json -algo mincostflow -approx-shard -shard-max-area 5000
//	geacc-solve -replay ./data/prod            # rebuild a server instance offline
//
// The output (JSON by default, CSV with -format csv) lists each assigned
// (event, user) pair with its interestingness value, plus the MaxSum.
// -diag prints the per-solve Diagnostics artifact (instance shape, phase
// timings, the Corollary 1 relaxation bound, and the optimality gap) as
// JSON on stderr (or to -diag-out); -trace-out writes the solver's spans
// as Chrome trace-event JSON loadable in Perfetto or chrome://tracing.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"github.com/ebsnlab/geacc/internal/buildinfo"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/report"
	"github.com/ebsnlab/geacc/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		obs.MustLogger(os.Stderr).Error("geacc-solve failed", "error", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("geacc-solve", flag.ContinueOnError)
	inPath := fs.String("in", "", "instance JSON file (required unless -replay)")
	replayDir := fs.String("replay", "",
		"replay a geacc-server instance directory (meta.json + ops.jsonl + snapshot.json) offline and print its arrangement")
	format := fs.String("format", "json", "output format: json or csv")
	outPath := fs.String("out", "", "write the matching here instead of stdout")
	sessionPath := fs.String("session", "", "also archive instance+matching+metadata (JSON) here")
	specFlags := decomp.BindFlags(fs, "algo", "seed", "decompose",
		"approx-shard", "shard-max-area", "shard-strategy", "shard-drift-budget", "diag")
	quiet := fs.Bool("quiet", false, "suppress the summary log line")
	showReport := fs.Bool("report", false, "print an arrangement quality report to stderr")
	skipBound := fs.Bool("no-bound", false, "with -report, skip the relaxation upper bound (faster)")
	diagOut := fs.String("diag-out", "", "with -diag, write the diagnostics JSON here instead of stderr")
	traceOut := fs.String("trace-out", "", "write solver spans as Chrome trace-event JSON (Perfetto-loadable) to this file")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	showVersion := fs.Bool("version", false, "print the build identity and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(stdout, buildinfo.Get())
		return nil
	}
	if *inPath == "" && *replayDir == "" {
		fs.Usage()
		return fmt.Errorf("missing -in (or -replay)")
	}
	if *inPath != "" && *replayDir != "" {
		return fmt.Errorf("-in and -replay are mutually exclusive")
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	if *replayDir != "" {
		return runReplay(*replayDir, *format, *outPath, *quiet, stdout, logger)
	}
	spec, err := specFlags()
	if err != nil {
		return err
	}
	spec.Diag = spec.Diag || *diagOut != ""

	f, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	in, simInfo, err := encoding.DecodeInstanceMeta(f)
	f.Close()
	if err != nil {
		return err
	}

	// Traced runs carry a span recorder on the context so the solvers'
	// phase spans are captured (Run adds one of its own for -diag).
	ctx := context.Background()
	var rec *obs.Recorder
	if *traceOut != "" {
		rec = obs.NewRecorder()
		ctx = obs.ContextWithRecorder(ctx, rec)
	}
	res, err := decomp.Run(ctx, in, spec, decomp.Env{})
	if err != nil {
		return err
	}
	m := res.M

	if *sessionPath != "" {
		sf, err := os.Create(*sessionPath)
		if err != nil {
			return err
		}
		meta := encoding.SessionMeta{
			Algorithm: spec.Algo,
			Seed:      spec.Seed,
			Seconds:   res.Elapsed.Seconds(),
			CreatedAt: time.Now().UTC(),
		}
		err = encoding.EncodeSession(sf, in, m, meta, simInfo.Kind, simInfo.Dim, simInfo.MaxT)
		if cerr := sf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}

	out := stdout
	if *outPath != "" {
		of, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer of.Close()
		out = of
	}
	switch *format {
	case "json":
		err = encoding.EncodeMatching(out, m)
	case "csv":
		err = encoding.WriteMatchingCSV(out, m)
	default:
		return fmt.Errorf("unknown format %q (json or csv)", *format)
	}
	if err != nil {
		return err
	}
	if !*quiet {
		attrs := []any{
			"algo", spec.Algo, "events", in.NumEvents(), "users", in.NumUsers(),
			"conflicts", conflictCount(in), "pairs", m.Size(),
			"max_sum", m.MaxSum(), "seconds", res.Elapsed.Seconds(),
		}
		if res.Decomposition != nil {
			attrs = append(attrs, "components", res.Decomposition.Components)
		}
		if partStats := res.Partition; partStats != nil {
			attrs = append(attrs, "shards", partStats.Shards,
				"shard_fallbacks", partStats.Fallbacks,
				"max_drift_estimate", partStats.MaxDriftEstimate)
		}
		if d := res.Diag; d != nil {
			attrs = append(attrs, "gap", d.Gap, "relaxed_upper_bound", d.RelaxedUpperBound)
		}
		logger.Info("solve", attrs...)
	}
	if res.Diag != nil {
		if err := writeDiagnostics(res.Diag, *diagOut, logger); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		if err := writeTrace(rec, *traceOut, logger); err != nil {
			return err
		}
	}
	if *showReport {
		rep, err := report.Build(ctx, in, m, *skipBound)
		if err != nil {
			return err
		}
		fmt.Fprint(os.Stderr, rep)
	}
	return nil
}

// runReplay rebuilds a geacc-server instance offline from its on-disk
// directory — snapshot plus op log, exactly the server's boot path but
// read-only (a torn final log line is skipped, never truncated) — and
// prints the recovered arrangement. This is the audit tool: it answers
// "what would the server serve for this instance?" without starting one.
func runReplay(dir, format, outPath string, quiet bool, stdout io.Writer, logger *slog.Logger) error {
	state, err := store.LoadDir(context.Background(), dir)
	if err != nil {
		return err
	}
	in, m, err := state.Arranger.Snapshot()
	if err != nil {
		return err
	}
	if err := core.Validate(in, m); err != nil {
		return fmt.Errorf("replayed arrangement is infeasible (corrupt log?): %w", err)
	}
	out := stdout
	if outPath != "" {
		of, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer of.Close()
		out = of
	}
	switch format {
	case "json":
		err = encoding.EncodeMatching(out, m)
	case "csv":
		err = encoding.WriteMatchingCSV(out, m)
	default:
		return fmt.Errorf("unknown format %q (json or csv)", format)
	}
	if err != nil {
		return err
	}
	if !quiet {
		logger.Info("replay",
			"id", state.Meta.ID, "seq", state.Seq, "snapshot_seq", state.SnapshotSeq,
			"replayed_ops", state.ReplayedOps,
			"events", state.Arranger.NumEvents(), "users", state.Arranger.NumUsers(),
			"pairs", m.Size(), "max_sum", m.MaxSum(),
			"dirty_events", len(state.DirtyEvents), "dirty_users", len(state.DirtyUsers))
	}
	return nil
}

// writeDiagnostics emits the artifact as indented JSON, to stderr by
// default so it composes with -out/-format on stdout.
func writeDiagnostics(d *core.Diagnostics, path string, logger *slog.Logger) error {
	w := io.Writer(os.Stderr)
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := encodeIndentedJSON(w, d); err != nil {
		return err
	}
	if path != "" {
		logger.Debug("wrote diagnostics", "path", path)
	}
	return nil
}

func encodeIndentedJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// writeTrace exports the recorder's spans as Chrome trace-event JSON.
func writeTrace(rec *obs.Recorder, path string, logger *slog.Logger) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = rec.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	logger.Debug("wrote chrome trace", "path", path, "spans", len(rec.Spans()))
	return nil
}

func conflictCount(in *core.Instance) int {
	if in.Conflicts == nil {
		return 0
	}
	return in.Conflicts.Edges()
}
