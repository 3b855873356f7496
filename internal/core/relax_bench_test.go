package core_test

import (
	"context"
	"errors"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/obs"
)

// relaxationInstance is the 20×200 TABLE III shape (seed 7) whose search
// work TestRelaxationSearchWork pins.
func relaxationInstance(tb testing.TB) *core.Instance {
	cfg := dataset.DefaultSynthetic()
	cfg.NumEvents, cfg.NumUsers, cfg.Seed = 20, 200, 7
	in, err := cfg.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// searchCounters reads the geacc_mcflow_* counters that attribute the
// search layer: units pushed, event-space searches, events settled and
// compound arcs relaxed.
func searchCounters() (augs, searches, pops, scans int64) {
	reg := obs.Default()
	return reg.Counter("geacc_mcflow_augmentations_total").Value(),
		reg.Counter("geacc_mcflow_searches_total").Value(),
		reg.Counter("geacc_mcflow_dijkstra_pops_total").Value(),
		reg.Counter("geacc_mcflow_arc_scans_total").Value()
}

// TestRelaxationSearchWork pins the search work of one relaxation on
// seed 7 of the 20×200 TABLE III shape: the event-space searches (one per
// unit of Δ, plus the last, which finds no path below 1), the events they
// settle and the compound arcs they relax. It pins the search model, not
// the result: any change that reorders settling, certifies paths
// differently or skips arcs moves these counts, even when the answer
// stays the same.
func TestRelaxationSearchWork(t *testing.T) {
	in := relaxationInstance(t)
	a0, n0, p0, s0 := searchCounters()
	res, err := core.MinCostFlowCtx(context.Background(), in, core.FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a1, n1, p1, s1 := searchCounters()
	if paths := a1 - a0; paths != res.Delta {
		t.Fatalf("relaxation pushed %d paths, Delta is %d", paths, res.Delta)
	}
	if searches, pops, scans := n1-n0, p1-p0, s1-s0; searches != 372 || pops != 3942 || scans != 25824 {
		t.Fatalf("relaxation did %d searches, %d pops and %d arc scans, want %d, %d and %d",
			searches, pops, scans, 372, 3942, 25824)
	}
}

// cancelAfter is a context whose Err reports Canceled from its n-th call
// on.
type cancelAfter struct {
	context.Context
	calls, n int
}

func (c *cancelAfter) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestRelaxationCancelsBetweenSearches cancels a relaxation on the paper's
// default 100×1000 shape after its first search. The relaxation polls ctx
// between searches, so it must return Canceled after exactly one.
func TestRelaxationCancelsBetweenSearches(t *testing.T) {
	cfg := dataset.DefaultSynthetic()
	cfg.Seed = 7
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	_, n0, _, _ := searchCounters()
	ctx := &cancelAfter{Context: context.Background(), n: 2}
	if _, err := core.RelaxedUpperBoundCtx(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, n1, _, _ := searchCounters(); n1-n0 != 1 {
		t.Fatalf("canceled relaxation ran %d searches, want 1", n1-n0)
	}
}

// BenchmarkRelaxation times the min-cost-flow relaxation every flow surface
// runs (core.RelaxedUpperBoundCtx is its cold entry point) on the
// benchmark's 20×200 TABLE III shape, cycling over seeds 1–64 so that one
// easy or hard instance does not stand for the shape, and reports the
// search work from the geacc_mcflow_* counters: searches, settled events
// and compound arcs relaxed per solve, and arcs per search. CI runs it as
// part of the flow smoke step.
func BenchmarkRelaxation(b *testing.B) {
	ins := make([]*core.Instance, 64)
	for i := range ins {
		cfg := dataset.DefaultSynthetic()
		cfg.NumEvents, cfg.NumUsers, cfg.Seed = 20, 200, int64(i+1)
		in, err := cfg.Generate()
		if err != nil {
			b.Fatal(err)
		}
		ins[i] = in
	}
	benchRelaxation(b, ins...)
}

// BenchmarkRelaxationBridged times the relaxation on the sharding
// workload's sparse shape: 24×480 clustered cosine instances whose 5%
// bridge users chain the communities into one component, so most pairs
// have similarity 0 and no arc. It cycles over seeds 1–16.
func BenchmarkRelaxationBridged(b *testing.B) {
	ins := make([]*core.Instance, 16)
	for i := range ins {
		cfg := dataset.DefaultClustered()
		cfg.NumEvents, cfg.NumUsers, cfg.BridgeFrac, cfg.Seed = 24, 480, 0.05, int64(i+1)
		in, err := cfg.Generate()
		if err != nil {
			b.Fatal(err)
		}
		ins[i] = in
	}
	benchRelaxation(b, ins...)
}

// BenchmarkRelaxationTableIII times the relaxation on the paper's default
// shape, dataset.DefaultSynthetic (TABLE III: 100×1000, c_v ≤ 50,
// c_u ≤ 4, seed 7), where Δ runs into the thousands of units.
func BenchmarkRelaxationTableIII(b *testing.B) {
	cfg := dataset.DefaultSynthetic()
	cfg.Seed = 7
	in, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	benchRelaxation(b, in)
}

// BenchmarkRelaxationV100U2000 times the same relaxation on the 100×2000
// shape of the solver benchmark's mincostflow/v100_u2000 point (capacities
// up to 10 and 4, seed 1000·100+2000).
func BenchmarkRelaxationV100U2000(b *testing.B) {
	cfg := dataset.DefaultSynthetic()
	cfg.NumEvents, cfg.NumUsers = 100, 2000
	cfg.EventCapMax, cfg.UserCapMax = 10, 4
	cfg.Seed = 1000*100 + 2000
	in, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	benchRelaxation(b, in)
}

// benchRelaxation solves the instances in turn, one per iteration.
func benchRelaxation(b *testing.B, ins ...*core.Instance) {
	a0, n0, p0, s0 := searchCounters()
	b.ResetTimer()
	for i := range b.N {
		if _, err := core.RelaxedUpperBoundCtx(context.Background(), ins[i%len(ins)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	a1, n1, p1, s1 := searchCounters()
	n := float64(b.N)
	b.ReportMetric(float64(a1-a0)/n, "paths/op")
	b.ReportMetric(float64(n1-n0)/n, "searches/op")
	b.ReportMetric(float64(p1-p0)/n, "pops/op")
	b.ReportMetric(float64(s1-s0)/n, "arcscans/op")
	if dn := n1 - n0; dn > 0 {
		b.ReportMetric(float64(s1-s0)/float64(dn), "arcscans/search")
	}
}
