// Command geacc-bench regenerates the tables and figures of the paper's
// evaluation (Section V). Each experiment prints one pivot table per metric
// (MaxSum, running time, memory) — the textual equivalent of the figure's
// curves — and can also dump the raw points as CSV.
//
// Usage:
//
//	geacc-bench -list
//	geacc-bench -run fig3v
//	geacc-bench -run all -scale 0.2 -reps 3 -csv out.csv
//
// Scale 1 reproduces the paper's workload sizes; smaller scales shrink
// cardinalities proportionally for quick looks. Shapes (who wins, how curves
// trend) are preserved at reduced scale; absolute numbers are not.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/ebsnlab/geacc/internal/bench"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		obs.MustLogger(os.Stderr).Error("geacc-bench failed", "error", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("geacc-bench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list available experiments and exit")
	runID := fs.String("run", "", "experiment id, comma-separated ids, or 'all'")
	scale := fs.Float64("scale", 1.0, "workload scale in (0, 1]; 1 = the paper's sizes")
	reps := fs.Int("reps", 1, "repetitions to average per point")
	seed := fs.Int64("seed", 1, "root random seed")
	csvPath := fs.String("csv", "", "also write raw points to this CSV file")
	jsonPath := fs.String("json", "", "also write raw points to this JSON file")
	specFlags := decomp.BindFlags(fs,
		"decompose", "approx-shard", "shard-max-area", "shard-strategy", "shard-drift-budget")
	solversJSON := fs.String("solvers-json", "",
		"run the pinned solver benchmark set and write the BENCH_solvers.json snapshot here (ignores -run)")
	comparePath := fs.String("compare", "",
		"run the pinned solver benchmark set and diff it against the snapshot at this path; exits non-zero on ns_per_op regressions beyond -compare-tol (ignores -run)")
	compareTol := fs.Float64("compare-tol", 0.20,
		"relative ns_per_op slowdown tolerated by -compare (0.20 = +20%)")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	spec, err := specFlags()
	if err != nil {
		return err
	}

	if *comparePath != "" {
		old, err := bench.ReadSolverBenchFile(*comparePath)
		if err != nil {
			return err
		}
		logger.Info("running pinned solver benchmarks for comparison", "reps", *reps, "against", *comparePath)
		fresh, err := bench.RunSolverBench(bench.Options{Reps: *reps, Seed: *seed, LargeShapes: true})
		if err != nil {
			return err
		}
		deltas, onlyOld, onlyNew := bench.CompareSolverBench(old, fresh)
		report, regressed := bench.FormatBenchComparison(deltas, onlyOld, onlyNew, *compareTol)
		fmt.Fprint(stdout, report)
		if len(regressed) > 0 {
			return fmt.Errorf("%d point(s) regressed beyond %.0f%%: %s",
				len(regressed), *compareTol*100, strings.Join(regressed, ", "))
		}
		logger.Info("no regressions beyond tolerance", "points", len(deltas), "tolerance", *compareTol)
		return nil
	}

	if *solversJSON != "" {
		logger.Info("running pinned solver benchmarks", "reps", *reps)
		points, err := bench.RunSolverBench(bench.Options{Reps: *reps, Seed: *seed, LargeShapes: true})
		if err != nil {
			return err
		}
		f, err := os.Create(*solversJSON)
		if err != nil {
			return err
		}
		err = bench.WriteSolverBenchJSON(f, points)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		logger.Info("wrote solver benchmark snapshot", "points", len(points), "path", *solversJSON)
		return nil
	}

	if *list {
		for _, e := range bench.Registry() {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *runID == "" {
		fs.Usage()
		return fmt.Errorf("missing -run (or -list)")
	}

	var experiments []bench.Experiment
	if *runID == "all" {
		experiments = bench.Registry()
	} else {
		for _, id := range strings.Split(*runID, ",") {
			e, err := bench.Lookup(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			experiments = append(experiments, e)
		}
	}

	opt := bench.Options{Scale: *scale, Reps: *reps, Seed: *seed,
		Decompose: spec.Decomposed(), Shard: spec.Options().Shard}
	var allPoints []bench.Point
	for _, e := range experiments {
		logger.Info("running experiment", "id", e.ID, "scale", *scale, "reps", *reps)
		points, err := e.Run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		metrics := bench.StandardMetrics()
		metrics = append(metrics, bench.ExtraMetrics(points)...)
		fmt.Fprintln(stdout, bench.RenderTables(e.Title, e.XLabel, points, metrics))
		if spark := bench.RenderSparklines(e.XLabel, points, bench.StandardMetrics()); spark != "" {
			fmt.Fprintln(stdout, spark)
		}
		allPoints = append(allPoints, points...)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := bench.WriteCSV(f, allPoints); err != nil {
			return err
		}
		logger.Info("wrote raw points", "points", len(allPoints), "path", *csvPath)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := bench.WriteJSON(f, allPoints); err != nil {
			return err
		}
		logger.Info("wrote raw points", "points", len(allPoints), "path", *jsonPath)
	}
	return nil
}
