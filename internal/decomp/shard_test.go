package decomp

import (
	"context"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/partition"
	"github.com/ebsnlab/geacc/internal/solvecache"
)

// bridgedClustered generates a clustered instance chained into one giant
// component by bridge users — the shape Options.Shard exists for.
func bridgedClustered(t *testing.T, nv, nu, k int, seed int64) *core.Instance {
	t.Helper()
	cfg := dataset.ClusteredConfig{
		NumEvents: nv, NumUsers: nu, Communities: k, BlockDim: 2,
		EventCapMax: 6, UserCapMax: 3, CFRatio: 0.25,
		BridgeFrac: 0.1, Seed: seed,
	}
	in, err := cfg.Generate()
	if err != nil {
		t.Fatalf("bridged generate: %v", err)
	}
	return in
}

func solvePairs(t *testing.T, in *core.Instance, opt Options) ([]core.Assignment, *core.PartitionStats) {
	t.Helper()
	d, err := DecomposeContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.solveStep(context.Background(), "mincostflow", d.allIDs(), opt)
	if err != nil {
		t.Fatal(err)
	}
	m := d.merge(nil, st.ms)
	if err := core.Validate(in, m); err != nil {
		t.Fatalf("merged matching infeasible: %v", err)
	}
	return m.SortedPairs(), st.partition
}

// TestShardNilAndOversizeThresholdBitIdentical: with Shard nil, or with a
// MaxArea no component exceeds, the solve is bit-identical to the plain
// decomposed path and reports no partition activity.
func TestShardNilAndOversizeThresholdBitIdentical(t *testing.T) {
	in := bridgedClustered(t, 24, 240, 6, 5)
	base, pst := solvePairs(t, in, Options{})
	if pst != nil {
		t.Fatal("plain solve reported partition stats")
	}
	huge := partition.Options{MaxArea: 1 << 40}
	got, pst := solvePairs(t, in, Options{Shard: &huge})
	if pst != nil {
		t.Fatal("under-threshold shard solve reported partition stats")
	}
	if len(got) != len(base) {
		t.Fatalf("pair counts differ: %d vs %d", len(got), len(base))
	}
	for i := range base {
		if got[i] != base[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, got[i], base[i])
		}
	}
}

// TestShardGiantComponent: the one giant bridged component routes through
// internal/partition, producing a feasible merged matching, populated
// aggregate stats, and a worker-count-invariant result.
func TestShardGiantComponent(t *testing.T) {
	in := bridgedClustered(t, 24, 240, 6, 5)
	d, err := DecomposeContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Components) != 1 {
		t.Fatalf("bridged instance split into %d components, want 1", len(d.Components))
	}
	sh := partition.Options{MaxArea: 500, DriftBudget: 0.9}
	setProcs(t, 1)
	base, pst := solvePairs(t, in, Options{Shard: &sh})
	if pst == nil {
		t.Fatal("giant component produced no partition stats")
	}
	if pst.Runs != 1 || pst.Shards < 2 || pst.Fallbacks != 0 {
		t.Fatalf("unexpected aggregate stats %+v", pst)
	}
	if pst.MaxDriftEstimate <= 0 || pst.MaxDriftEstimate > sh.DriftBudget {
		t.Fatalf("drift estimate %v outside (0, %v]", pst.MaxDriftEstimate, sh.DriftBudget)
	}
	if pst.MaxArea != sh.MaxArea || pst.DriftBudget != sh.DriftBudget || pst.Strategy != string(partition.StrategyModularity) {
		t.Fatalf("options not echoed in stats %+v", pst)
	}
	for _, workers := range []int{2, 4} {
		setProcs(t, workers)
		got, _ := solvePairs(t, in, Options{Shard: &sh})
		if len(got) != len(base) {
			t.Fatalf("workers=%d: pair counts differ", workers)
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: pair %d differs", workers, i)
			}
		}
	}
}

// TestShardStatsResetPerRun: partition stats describe one solve only —
// they are the step's return value, so a following solve of the same
// decomposition that shards nothing reports nil, and the stats of a run
// with several sharded components are summed in component order, identical
// for any worker count.
func TestShardStatsResetPerRun(t *testing.T) {
	in := clustered(t, 48, 1200, 8, 5, 6, 3) // eight components of area 900
	sh := partition.Options{MaxArea: 500, DriftBudget: 0.9}
	var want *core.PartitionStats
	for _, workers := range []int{1, 4, 4, 4, 4, 4, 4, 4, 4} {
		setProcs(t, workers)
		res, err := Run(context.Background(), in, Spec{Algo: "mincostflow", Shard: &sh, Diag: true}, Env{})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Diag.Partition
		if got == nil || got.Runs < 3 {
			t.Fatalf("workers=%d: partition stats %+v, want three or more sharded components", workers, got)
		}
		if want == nil {
			want = got
		} else if *got != *want {
			t.Fatalf("workers=%d: partition stats %+v, workers=1 %+v", workers, got, want)
		}
	}
	res, err := Run(context.Background(), in, Spec{Algo: "mincostflow", Decompose: true, Diag: true}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition != nil || res.Diag.Partition != nil {
		t.Fatal("an unsharded solve reported partition stats")
	}
}

// TestShardComposesWithSolveCache: shard sub-solves go through the ordinary
// per-component machinery, so a second identical run is served from the
// solve cache bit-identically.
func TestShardComposesWithSolveCache(t *testing.T) {
	in := bridgedClustered(t, 24, 240, 6, 5)
	cache := solvecache.New(64)
	sh := partition.Options{MaxArea: 500, DriftBudget: 0.9}
	opt := Options{Shard: &sh, SolveCache: cache, SimID: "cosine/12/1"}
	base, _ := solvePairs(t, in, opt)
	if cache.Stats().Entries == 0 {
		t.Fatal("sharded solve populated no cache entries")
	}
	before := cache.Stats()
	got, _ := solvePairs(t, in, opt)
	if after := cache.Stats(); after.Hits <= before.Hits {
		t.Fatalf("re-run produced no cache hits (before %+v, after %+v)", before, after)
	}
	if len(got) != len(base) {
		t.Fatal("cached re-run differs")
	}
	for i := range base {
		if got[i] != base[i] {
			t.Fatalf("cached re-run pair %d differs", i)
		}
	}
}
