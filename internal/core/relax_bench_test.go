package core_test

import (
	"context"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/obs"
)

// BenchmarkRelaxation times the min-cost-flow relaxation every flow surface
// runs (core.RelaxedUpperBoundCtx is its cold entry point) on the
// benchmark's 20×200 TABLE III shape, and reports the Dijkstra work from
// the geacc_mcflow_* counters: pops and arc scans per solve, and arc scans
// per augmentation. CI runs it as part of the flow smoke step.
func BenchmarkRelaxation(b *testing.B) {
	cfg := dataset.DefaultSynthetic()
	cfg.NumEvents, cfg.NumUsers, cfg.Seed = 20, 200, 7
	in, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.Default()
	augs := reg.Counter("geacc_mcflow_augmentations_total")
	pops := reg.Counter("geacc_mcflow_dijkstra_pops_total")
	scans := reg.Counter("geacc_mcflow_arc_scans_total")
	a0, p0, s0 := augs.Value(), pops.Value(), scans.Value()
	b.ResetTimer()
	for range b.N {
		if _, err := core.RelaxedUpperBoundCtx(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(pops.Value()-p0)/n, "pops/op")
	b.ReportMetric(float64(scans.Value()-s0)/n, "arcscans/op")
	if da := augs.Value() - a0; da > 0 {
		b.ReportMetric(float64(scans.Value()-s0)/float64(da), "arcscans/aug")
	}
}
