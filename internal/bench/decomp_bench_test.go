package bench

import (
	"context"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/decomp"
)

// clusteredInstance builds the clustered counterpart of pinnedInstance: the
// multi-community workload the decomposition layer shards.
func clusteredInstance(tb testing.TB, nv, nu, communities int) *core.Instance {
	cfg := dataset.DefaultClustered()
	cfg.NumEvents = nv
	cfg.NumUsers = nu
	cfg.Communities = communities
	cfg.EventCapMax = 10
	cfg.UserCapMax = 4
	cfg.Seed = int64(1000*nv + nu)
	in, err := cfg.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// The benchmarks below are the CI smoke surface for the decomposition path
// (run with -benchtime=10x): the same clustered instance solved whole and
// sharded, so a perf or correctness break in internal/decomp shows up in
// the smoke run, not only in the full snapshot job.

func BenchmarkGreedyMonolithicClusteredV40U400C8(b *testing.B) {
	in := clusteredInstance(b, 40, 400, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Greedy(in)
	}
}

func BenchmarkGreedyDecomposedClusteredV40U400C8(b *testing.B) {
	in := clusteredInstance(b, 40, 400, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decomp.Run(context.Background(), in, decomp.Spec{Algo: "greedy", Decompose: true}, decomp.Env{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecomposeBuildClusteredV40U400C8(b *testing.B) {
	in := clusteredInstance(b, 40, 400, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decomp.DecomposeContext(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
}
