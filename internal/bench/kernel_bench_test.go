package bench

import (
	"strings"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/obs"
)

// pinnedInstance builds the same instance RunSolverBench uses for a shape.
func pinnedInstance(tb testing.TB, nv, nu int) *core.Instance {
	cfg := dataset.DefaultSynthetic()
	cfg.NumEvents = nv
	cfg.NumUsers = nu
	cfg.EventCapMax = 10
	cfg.UserCapMax = 4
	cfg.Seed = int64(1000*nv + nu)
	in, err := cfg.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// TestSolverBenchLargeShapesGated: the large shapes run only when
// Options.LargeShapes is set, so plain `go test` stays fast while the CLI
// snapshot includes them.
func TestSolverBenchLargeShapesGated(t *testing.T) {
	var large, small int
	for _, c := range solverBenchCases() {
		if c.large {
			large++
			if c.nv*c.nu < 50*500 {
				t.Errorf("case v%d_u%d marked large", c.nv, c.nu)
			}
		} else {
			small++
		}
	}
	if large != 8 {
		t.Errorf("large cases = %d, want 8 (greedy+mincostflow at v50_u500, v100_u2000, and mono+decomp at clustered v100_u2000_c16)", large)
	}
	if small < 12 {
		t.Errorf("small cases = %d, want >= 12", small)
	}
	if testing.Short() {
		return
	}
	points, err := RunSolverBench(Options{Reps: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if strings.Contains(p.Name, "u500") || strings.Contains(p.Name, "u2000") {
			t.Errorf("large point %s ran without LargeShapes", p.Name)
		}
	}
}

// The benchmarks below are the CI smoke surface for the batched kernel path
// (run with -benchtime=10x): a greedy solve that scores every live pair
// through SimBatch rows, and a flow solve whose cost matrix is built from
// batched similarity rows.

// BenchmarkGreedyKernelV50U500 also reports the search work per solve:
// kernelpairs/op counts (query, row) similarity evaluations (each live pair
// once), pops/op counts the pairs Greedy's sweep decided.
func BenchmarkGreedyKernelV50U500(b *testing.B) {
	in := pinnedInstance(b, 50, 500)
	reg := obs.Default()
	pairs := reg.Counter("geacc_sim_kernel_pairs_total")
	pops := reg.Counter("geacc_greedy_pops_total")
	k0, p0 := pairs.Value(), pops.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Greedy(in)
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(pairs.Value()-k0)/n, "kernelpairs/op")
	b.ReportMetric(float64(pops.Value()-p0)/n, "pops/op")
}

func BenchmarkMinCostFlowKernelV20U100(b *testing.B) {
	in := pinnedInstance(b, 20, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MinCostFlowOpts(in, core.FlowOptions{})
	}
}
