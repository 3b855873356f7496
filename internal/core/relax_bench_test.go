package core_test

import (
	"context"
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
// Dijkstra layer: augmentations, heap pops and arc scans.
func searchCounters() (augs, pops, scans int64) {
	reg := obs.Default()
	return reg.Counter("geacc_mcflow_augmentations_total").Value(),
		reg.Counter("geacc_mcflow_dijkstra_pops_total").Value(),
		reg.Counter("geacc_mcflow_arc_scans_total").Value()
}

// TestRelaxationSearchWork pins the Dijkstra work of one relaxation on
// BenchmarkRelaxation's instance. Any change that reorders arc scans or
// heap pops moves these counts, even when the answer stays the same.
func TestRelaxationSearchWork(t *testing.T) {
	in := relaxationInstance(t)
	_, p0, s0 := searchCounters()
	if _, err := core.RelaxedUpperBoundCtx(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	_, p1, s1 := searchCounters()
	if pops, scans := p1-p0, s1-s0; pops != 11976 || scans != 202500 {
		t.Fatalf("relaxation did %d pops and %d arc scans, want 11976 and 202500", pops, scans)
	}
}

// BenchmarkRelaxation times the min-cost-flow relaxation every flow surface
// runs (core.RelaxedUpperBoundCtx is its cold entry point) on the
// benchmark's 20×200 TABLE III shape, and reports the Dijkstra work from
// the geacc_mcflow_* counters: pops and arc scans per solve, and arc scans
// per augmentation. CI runs it as part of the flow smoke step.
func BenchmarkRelaxation(b *testing.B) {
	benchRelaxation(b, relaxationInstance(b))
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
	a0, p0, s0 := searchCounters()
	b.ResetTimer()
	for range b.N {
		if _, err := core.RelaxedUpperBoundCtx(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	a1, p1, s1 := searchCounters()
	n := float64(b.N)
	b.ReportMetric(float64(p1-p0)/n, "pops/op")
	b.ReportMetric(float64(s1-s0)/n, "arcscans/op")
	if da := a1 - a0; da > 0 {
		b.ReportMetric(float64(s1-s0)/float64(da), "arcscans/aug")
	}
}
