// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section V): parameter sweeps over the
// synthetic and simulated-Meetup workloads, metric collection (MaxSum,
// wall-clock time, allocated bytes), and text/CSV rendering of the series.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/partition"
	"github.com/ebsnlab/geacc/internal/stats"
)

// Point is one measured sample: algorithm `Algo` at swept value `X` of an
// experiment.
type Point struct {
	Experiment string
	X          float64
	Algo       string
	MaxSum     float64
	Seconds    float64
	Bytes      float64 // allocated bytes during the solve
	// Extra carries experiment-specific metrics, e.g. Prune-GEACC's search
	// statistics for Fig. 6.
	Extra map[string]float64
}

// Options controls an experiment run.
type Options struct {
	// Scale shrinks workload cardinalities (0 < Scale <= 1; 1 = the paper's
	// sizes). Sweep values of non-cardinality parameters are unaffected.
	Scale float64
	// Reps averages each point over this many repetitions with derived
	// seeds (default 1).
	Reps int
	// Seed is the root seed; every instance and randomized solver derives
	// from it deterministically.
	Seed int64
	// LargeShapes includes the large pinned shapes (v50_u500, v100_u2000)
	// in RunSolverBench. Off by default so plain `go test` stays fast; the
	// geacc-bench CLI turns it on for snapshot generation, where the large
	// shapes are the ones that actually exercise the batched kernel path.
	LargeShapes bool
	// Decompose routes every experiment solve through internal/decomp:
	// shard along conflict/similarity components, solve in parallel, merge.
	// The pinned RunSolverBench set ignores this — it pins monolithic and
	// decomposed variants explicitly so the snapshot always compares both.
	Decompose bool
	// Shard, when non-nil, additionally routes oversized components through
	// internal/partition's approximate sharding (geacc-bench -approx-shard);
	// implies the decomposed path.
	Shard *partition.Options
}

// withDefaults normalizes an Options value.
func (o Options) withDefaults() Options {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
	if o.Reps < 1 {
		o.Reps = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// scaleCard applies Scale to a cardinality, keeping at least min.
func (o Options) scaleCard(n, min int) int {
	s := int(float64(n) * o.Scale)
	if s < min {
		return min
	}
	return s
}

// MeasureAlgo measures a registry solver by name through decomp.Run, the
// service's solve pipeline, decomposed when opt.Decompose or opt.Shard is
// set. The experiments call this so `geacc-bench -decompose` re-runs any
// sweep in decomposed form.
func MeasureAlgo(opt Options, in *core.Instance, algo string, seed int64) (*core.Matching, float64, float64, error) {
	spec := decomp.Spec{Algo: algo, Seed: seed, Decompose: opt.Decompose, Shard: opt.Shard}
	if spec.Decomposed() {
		// Decomposed solves derive their component seeds from the first
		// draw of seed's stream, so their random baselines keep their
		// answers.
		spec.Seed = rand.New(rand.NewSource(seed)).Int63()
	}
	return measureErr(in, func(in *core.Instance, _ *rand.Rand) (*core.Matching, error) {
		res, err := decomp.Run(context.Background(), in, spec, decomp.Env{})
		if err != nil {
			return nil, err
		}
		return res.M, nil
	}, seed)
}

// measureErr runs solve on in, returning the matching together with its
// wall time and allocated bytes; solve gets a PRNG seeded with seed. The
// matching is validated; an infeasible result is a bug worth failing
// loudly over.
func measureErr(in *core.Instance, solve func(*core.Instance, *rand.Rand) (*core.Matching, error), seed int64) (*core.Matching, float64, float64, error) {
	rng := rand.New(rand.NewSource(seed))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	m, err := solve(in, rng)
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := core.Validate(in, m); err != nil {
		return nil, 0, 0, fmt.Errorf("bench: infeasible matching: %w", err)
	}
	return m, elapsed, float64(after.TotalAlloc - before.TotalAlloc), nil
}

// average folds rep measurements into one Point. With more than one rep it
// also records the standard deviations of MaxSum and time as Extra columns,
// so multi-rep tables expose their spread.
func average(points []Point) Point {
	if len(points) == 0 {
		return Point{}
	}
	out := points[0]
	if len(points) == 1 {
		return out
	}
	var maxSum, seconds, bytes stats.Stream
	extras := map[string]*stats.Stream{}
	for _, p := range points {
		maxSum.Add(p.MaxSum)
		seconds.Add(p.Seconds)
		bytes.Add(p.Bytes)
		for k, v := range p.Extra {
			if extras[k] == nil {
				extras[k] = &stats.Stream{}
			}
			extras[k].Add(v)
		}
	}
	out.MaxSum = maxSum.Mean()
	out.Seconds = seconds.Mean()
	out.Bytes = bytes.Mean()
	out.Extra = map[string]float64{
		"maxsum_std":  maxSum.StdDev(),
		"seconds_std": seconds.StdDev(),
	}
	for k, s := range extras {
		out.Extra[k] = s.Mean()
	}
	return out
}
