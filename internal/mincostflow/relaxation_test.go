package mincostflow_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/mincostflow"
)

// The relaxation every flow surface runs (core's relaxedOptimum, reached
// here through core.MinCostFlowCtx) pushes several paths per search with
// AugmentPaths. These tests hold it to the one-path-per-search oracle,
// AugmentBelow, on the network relaxedOptimum builds.

// onePathRelaxation solves in's conflict-free relaxation one shortest path
// per search. The network is relaxedOptimum's: source, events, users,
// sink; the source and sink arcs first, then a unit arc of cost 1 − sim
// for each sim > 0 pair in row-major order; and the sweep stops at the
// first path of cost ≥ 1. It returns Δ and M∅, its pairs added in
// row-major order as relaxedOptimum adds them.
func onePathRelaxation(in *core.Instance) (int64, *core.Matching) {
	nv, nu := in.NumEvents(), in.NumUsers()
	s, t := 0, 1+nv+nu
	g := mincostflow.NewGraph(nv + nu + 2)
	for v, e := range in.Events {
		g.AddArc(s, 1+v, int64(e.Cap), 0)
	}
	for u, usr := range in.Users {
		g.AddArc(1+nv+u, t, int64(usr.Cap), 0)
	}
	pairArc := make([]mincostflow.ArcID, nv*nu)
	for i := range pairArc {
		pairArc[i] = -1
		if sim := in.Similarity(i/nu, i%nu); sim > 0 {
			pairArc[i] = g.AddArc(1+i/nu, 1+nv+i%nu, 1, 1-sim)
		}
	}
	sv := mincostflow.NewSolver(g, s, t)
	for {
		if _, _, ok := sv.AugmentBelow(math.MaxInt64, 1); !ok {
			break
		}
	}
	m := core.NewMatching()
	for i, a := range pairArc {
		if a >= 0 && g.Flow(a) == 1 {
			m.Add(i/nu, i%nu, in.Similarity(i/nu, i%nu))
		}
	}
	return sv.TotalFlow(), m
}

// checkRelaxation solves in both ways. exact requires the same Δ, the
// same M∅ pairs and the same RelaxedMaxSum bits; otherwise Δ must match
// and RelaxedMaxSum agree within 1e-9, as tied paths may pick other pairs.
func checkRelaxation(t *testing.T, name string, in *core.Instance, exact bool) {
	t.Helper()
	res, err := core.MinCostFlowCtx(context.Background(), in, core.FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	delta, want := onePathRelaxation(in)
	if res.Delta != delta {
		t.Fatalf("%s: Δ = %d, one-path oracle %d", name, res.Delta, delta)
	}
	if math.Abs(res.RelaxedMaxSum-want.MaxSum()) > 1e-9 {
		t.Fatalf("%s: RelaxedMaxSum = %v, one-path oracle %v", name, res.RelaxedMaxSum, want.MaxSum())
	}
	if !exact {
		return
	}
	if !slices.Equal(res.Relaxed.Pairs(), want.Pairs()) {
		t.Fatalf("%s: M∅ differs from the one-path oracle's (%d and %d pairs)", name, res.Relaxed.Size(), want.Size())
	}
	if math.Float64bits(res.RelaxedMaxSum) != math.Float64bits(want.MaxSum()) {
		t.Fatalf("%s: RelaxedMaxSum bits %x, one-path oracle %x", name,
			math.Float64bits(res.RelaxedMaxSum), math.Float64bits(want.MaxSum()))
	}
}

// TestRelaxationMatchesOnePath runs the 20×200 TABLE III shape of the
// solve-mcflow-diag workload over 200 seeds, and the 24×480 bridged
// cosine shape of solve-sharded over 10: without ties the batches must
// push the one-path oracle's paths, so Δ, M∅ and its MaxSum bits agree.
func TestRelaxationMatchesOnePath(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cfg := dataset.DefaultSynthetic()
		cfg.NumEvents, cfg.NumUsers, cfg.Seed = 20, 200, seed
		in, err := cfg.Generate()
		if err != nil {
			t.Fatal(err)
		}
		checkRelaxation(t, "table3", in, true)
	}
	for seed := int64(1); seed <= 10; seed++ {
		cfg := dataset.DefaultClustered()
		cfg.NumEvents, cfg.NumUsers, cfg.BridgeFrac, cfg.Seed = 24, 480, 0.05, seed
		in, err := cfg.Generate()
		if err != nil {
			t.Fatal(err)
		}
		checkRelaxation(t, "bridged", in, true)
	}
}

// quantizedInstance decodes bytes into a matrix instance of at most 6
// events and 12 users whose similarities are multiples of 1/8, a third of
// them zero, so equal path lengths are common:
//
//	byte 0       events 1 + b%6
//	byte 1       users 1 + b%12
//	then         one byte per event capacity (1 + b%4), one per user
//	             capacity (1 + b%3), and one per pair (similarity
//	             max(0, b%12 − 4) / 8), each 0 once the data runs out
func quantizedInstance(data []byte) (*core.Instance, error) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	nv, nu := 1+next()%6, 1+next()%12
	events, users := make([]core.Event, nv), make([]core.User, nu)
	for v := range events {
		events[v].Cap = 1 + next()%4
	}
	for u := range users {
		users[u].Cap = 1 + next()%3
	}
	matrix := make([][]float64, nv)
	for v := range matrix {
		matrix[v] = make([]float64, nu)
		for u := range matrix[v] {
			matrix[v][u] = float64(max(0, next()%12-4)) / 8
		}
	}
	return core.NewMatrixInstance(events, users, nil, matrix)
}

// TestRelaxationQuantized checks 300 random quantized instances.
func TestRelaxationQuantized(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	data := make([]byte, 2+6+12+6*12)
	for range 300 {
		rng.Read(data)
		in, err := quantizedInstance(data)
		if err != nil {
			t.Fatal(err)
		}
		checkRelaxation(t, "quantized", in, false)
	}
}

// FuzzRelaxationQuantized holds the relaxation to the one-path oracle on
// quantized instances: the same Δ, and RelaxedMaxSum within 1e-9.
func FuzzRelaxationQuantized(f *testing.F) {
	f.Add([]byte{3, 7, 2, 1, 3, 0, 1, 2, 0, 1, 2, 1, 11, 10, 9, 8, 7, 6, 5, 11, 11, 11, 4, 3, 2, 1})
	f.Add([]byte{5, 11, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 8, 8, 8, 8, 8, 8, 8, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := quantizedInstance(data)
		if err != nil {
			t.Fatal(err)
		}
		checkRelaxation(t, "fuzz", in, false)
	})
}
