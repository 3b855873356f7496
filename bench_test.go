// Benchmarks regenerating the paper's evaluation, one per table/figure.
//
// Each BenchmarkFig* drives the corresponding experiment from
// internal/bench at a reduced scale so `go test -bench=.` terminates in
// minutes; run `go run ./cmd/geacc-bench -run all -scale 1` for the paper's
// full workload sizes. The BenchmarkAlgo* group measures a single solve at
// the default synthetic setting (TABLE III bold: |V|=100, |U|=1000, d=20,
// conflict density 0.25) — with -benchmem these are the time and memory
// panels of Figs. 3-4 at the default point. BenchmarkTable1 exercises the
// TABLE I toy instance.
package geacc

import (
	"testing"

	"github.com/ebsnlab/geacc/internal/bench"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
)

// benchScale keeps experiment sweeps tractable inside testing.B; the shape
// (who wins, how curves trend) is preserved, absolute numbers shrink.
const benchScale = 0.1

func runExperiment(b *testing.B, id string, opt bench.Options) {
	b.Helper()
	exp, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := exp.Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFig3VaryV(b *testing.B) {
	runExperiment(b, "fig3v", bench.Options{Scale: benchScale, Seed: 1})
}

func BenchmarkFig3VaryU(b *testing.B) {
	runExperiment(b, "fig3u", bench.Options{Scale: benchScale, Seed: 1})
}

func BenchmarkFig3VaryD(b *testing.B) {
	runExperiment(b, "fig3d", bench.Options{Scale: benchScale, Seed: 1})
}

func BenchmarkFig3VaryCF(b *testing.B) {
	runExperiment(b, "fig3cf", bench.Options{Scale: benchScale, Seed: 1})
}

func BenchmarkFig4VaryCv(b *testing.B) {
	runExperiment(b, "fig4cv", bench.Options{Scale: benchScale, Seed: 1})
}

func BenchmarkFig4VaryCu(b *testing.B) {
	runExperiment(b, "fig4cu", bench.Options{Scale: benchScale, Seed: 1})
}

func BenchmarkFig4Distribution(b *testing.B) {
	runExperiment(b, "fig4dist", bench.Options{Scale: benchScale, Seed: 1})
}

func BenchmarkFig4Real(b *testing.B) {
	runExperiment(b, "fig4real", bench.Options{Scale: benchScale, Seed: 1})
}

func BenchmarkFig5Scalability(b *testing.B) {
	runExperiment(b, "fig5ab", bench.Options{Scale: 0.01, Seed: 1})
}

func BenchmarkFig5Effectiveness(b *testing.B) {
	runExperiment(b, "fig5cd", bench.Options{Scale: 0.5, Seed: 1}) // |U| = 7
}

func BenchmarkFig6PrunedDepth(b *testing.B) {
	runExperiment(b, "fig6a", bench.Options{Scale: 0.7, Seed: 1}) // |U| = 7, 10
}

func BenchmarkFig6VsExhaustive(b *testing.B) {
	runExperiment(b, "fig6bcd", bench.Options{Scale: 0.6, Seed: 1}) // |U| = 6
}

// defaultInstance is the TABLE III bold setting at benchmark scale.
func defaultInstance(b *testing.B, scale float64) *core.Instance {
	b.Helper()
	cfg := dataset.DefaultSynthetic()
	cfg.NumEvents = int(float64(cfg.NumEvents) * scale)
	cfg.NumUsers = int(float64(cfg.NumUsers) * scale)
	in, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func benchmarkSolver(b *testing.B, name string, scale float64) {
	in := defaultInstance(b, scale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := bench.MeasureAlgo(bench.Options{}, in, name, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgoGreedyDefault(b *testing.B) { benchmarkSolver(b, "greedy", 1) }
func BenchmarkAlgoGreedyLarge(b *testing.B)   { benchmarkSolver(b, "greedy", 4) }
func BenchmarkAlgoMinCostFlow(b *testing.B)   { benchmarkSolver(b, "mincostflow", 0.5) }
func BenchmarkAlgoRandomV(b *testing.B)       { benchmarkSolver(b, "random-v", 1) }
func BenchmarkAlgoRandomU(b *testing.B)       { benchmarkSolver(b, "random-u", 1) }

// BenchmarkTable1 solves the paper's toy instance with every algorithm.
func BenchmarkTable1(b *testing.B) {
	p, err := NewProblem(
		[]Event{{Cap: 5}, {Cap: 3}, {Cap: 2}},
		[]User{{Cap: 3}, {Cap: 1}, {Cap: 1}, {Cap: 2}, {Cap: 3}},
		WithSimilarityMatrix([][]float64{
			{0.93, 0.43, 0.84, 0.64, 0.65},
			{0, 0.35, 0.19, 0.21, 0.4},
			{0.86, 0.57, 0.78, 0.79, 0.68},
		}),
		WithConflictPairs([][2]int{{0, 2}}),
	)
	if err != nil {
		b.Fatal(err)
	}
	for _, algo := range []Algorithm{Greedy, MinCostFlow, Exact} {
		algo := algo
		b.Run(algo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Solve(algo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlowResolution is the conflict-resolution ablation: the paper's
// greedy per-user selection (Algorithm 1 lines 8-14) versus the exact
// per-user maximum-weight independent set extension.
func BenchmarkFlowResolution(b *testing.B) {
	in := defaultInstance(b, 0.5)
	for _, mode := range []struct {
		name string
		opt  core.FlowOptions
	}{
		{"greedy-resolution", core.FlowOptions{}},
		{"exact-resolution", core.FlowOptions{ExactResolution: true}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				res := core.MinCostFlowOpts(in, mode.opt)
				sum = res.Matching.MaxSum()
			}
			b.ReportMetric(sum, "MaxSum")
		})
	}
}

// BenchmarkPruneBounds is the bound-strength ablation for Prune-GEACC: the
// paper's s_v·c_v potential versus the tighter top-c_v-similarities sum,
// aggregated over several instances. The tight bound usually prunes far
// harder (up to ~100× fewer nodes) but, because it also reorders L, can
// occasionally explore more — both outcomes are visible in the per-seed
// node metric.
func BenchmarkPruneBounds(b *testing.B) {
	seeds := []int64{2, 5, 7, 12}
	var instances []*core.Instance
	for _, seed := range seeds {
		cfg := dataset.DefaultSynthetic()
		cfg.NumEvents, cfg.NumUsers = 5, 12
		cfg.EventCapMax = 10
		cfg.Seed = seed
		in, err := cfg.Generate()
		if err != nil {
			b.Fatal(err)
		}
		instances = append(instances, in)
	}
	for _, mode := range []struct {
		name string
		opt  core.ExactOptions
	}{
		{"paper-bound", core.ExactOptions{NodeLimit: 100_000_000}},
		{"tight-bound", core.ExactOptions{NodeLimit: 100_000_000, TightBound: true}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				nodes = 0
				for _, in := range instances {
					_, stats, err := core.ExactOpts(in, mode.opt)
					if err != nil && err != core.ErrNodeLimit {
						b.Fatal(err)
					}
					nodes += stats.Invocations
				}
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkGreedyIndexes is the index ablation DESIGN.md calls out: the
// same greedy arrangement computed through each NN index implementation.
func BenchmarkGreedyIndexes(b *testing.B) {
	in := defaultInstance(b, 1)
	for _, kind := range []core.IndexKind{
		core.IndexChunked, core.IndexSorted, core.IndexIDistance, core.IndexVAFile,
	} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := core.GreedyOpts(in, core.GreedyOptions{Index: kind})
				if m.Size() == 0 {
					b.Fatal("empty matching")
				}
			}
		})
	}
}
