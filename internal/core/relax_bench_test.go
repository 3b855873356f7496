package core_test

import (
	"context"
	"errors"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/obs"
)

// relaxationInstance is the 20×200 TABLE III shape (seed 7) that
// BenchmarkRelaxation times and TestRelaxationSearchWork pins.
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
// Dijkstra layer: augmenting paths, searches, heap pops and arc scans.
func searchCounters() (augs, searches, pops, scans int64) {
	reg := obs.Default()
	return reg.Counter("geacc_mcflow_augmentations_total").Value(),
		reg.Counter("geacc_mcflow_searches_total").Value(),
		reg.Counter("geacc_mcflow_dijkstra_pops_total").Value(),
		reg.Counter("geacc_mcflow_arc_scans_total").Value()
}

// TestRelaxationSearchWork pins the Dijkstra work of one relaxation on
// BenchmarkRelaxation's instance. Any change that reorders arc scans or
// heap pops moves these counts, even when the answer stays the same. The
// paths pushed are Δ, one per unit, however many searches push them.
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
	if searches, pops, scans := n1-n0, p1-p0, s1-s0; searches != 58 || pops != 3431 || scans != 55141 {
		t.Fatalf("relaxation did %d searches, %d pops and %d arc scans, want %d, %d and %d",
			searches, pops, scans, 58, 3431, 55141)
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
// benchmark's 20×200 TABLE III shape, and reports the Dijkstra work from
// the geacc_mcflow_* counters: searches, pops and arc scans per solve, and
// arc scans per search. CI runs it as part of the flow smoke step.
func BenchmarkRelaxation(b *testing.B) {
	benchRelaxation(b, relaxationInstance(b))
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

func benchRelaxation(b *testing.B, in *core.Instance) {
	a0, n0, p0, s0 := searchCounters()
	b.ResetTimer()
	for range b.N {
		if _, err := core.RelaxedUpperBoundCtx(context.Background(), in); err != nil {
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
