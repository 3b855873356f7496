package bench

import (
	"context"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/partition"
)

// bridgedInstance builds a small bridged-clustered instance: one giant
// similarity component, the approximate-sharding workload. The CI bench
// smoke (-benchtime=10x) runs these so a break in internal/partition shows
// up without waiting for the full snapshot job.
func bridgedInstance(tb testing.TB, nv, nu, communities int) *core.Instance {
	cfg := dataset.DefaultClustered()
	cfg.NumEvents = nv
	cfg.NumUsers = nu
	cfg.Communities = communities
	cfg.EventCapMax = 10
	cfg.UserCapMax = 4
	cfg.BridgeFrac = partitionBenchBridgeFrac
	cfg.Seed = int64(1000*nv + nu)
	in, err := cfg.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

func BenchmarkPartitionShardedClusteredV40U400C8(b *testing.B) {
	in := bridgedInstance(b, 40, 400, 8)
	sh := partition.Options{MaxArea: 2000, DriftBudget: 0.9}.Normalized()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decomp.Run(context.Background(), in, decomp.Spec{Algo: "mincostflow", Shard: &sh}, decomp.Env{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionMonolithicClusteredV40U400C8(b *testing.B) {
	in := bridgedInstance(b, 40, 400, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decomp.Run(context.Background(), in, decomp.Spec{Algo: "mincostflow", Decompose: true}, decomp.Env{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionSplitBuildClusteredV40U400C8(b *testing.B) {
	in := bridgedInstance(b, 40, 400, 8)
	noop := func(ctx context.Context, sub *core.Instance, events, users []int, shard int) (*core.Matching, error) {
		return core.NewMatching(), nil
	}
	mono := func(ctx context.Context) (*core.Matching, error) {
		return core.NewMatching(), nil
	}
	// DriftBudget 1 never falls back, so this times split + merge + repair
	// bookkeeping with free shard solves.
	opt := partition.Options{MaxArea: 2000, DriftBudget: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := partition.SolveComponent(context.Background(), in, opt, noop, mono); err != nil {
			b.Fatal(err)
		}
	}
}
