package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/sim"
)

// requireSameMatching fails unless a and b hold the same pairs in the same
// insertion order with the same similarity bits, and the same MaxSum bits.
func requireSameMatching(t *testing.T, name string, a, b *Matching) {
	t.Helper()
	pa, pb := a.Pairs(), b.Pairs()
	if len(pa) != len(pb) {
		t.Fatalf("%s: %d pairs against %d", name, len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].V != pb[i].V || pa[i].U != pb[i].U || math.Float64bits(pa[i].Sim) != math.Float64bits(pb[i].Sim) {
			t.Fatalf("%s: pair %d: %+v against %+v", name, i, pa[i], pb[i])
		}
	}
	if math.Float64bits(a.MaxSum()) != math.Float64bits(b.MaxSum()) {
		t.Fatalf("%s: MaxSum %v against %v", name, a.MaxSum(), b.MaxSum())
	}
}

// FuzzGreedySweepEqualsHeap checks the default sweep (GreedyOpts without a
// Trace hook) against the heap loop under IndexSorted: the same pairs in
// insertion order, the same sim bits and the same MaxSum bits. Vector
// instances quantize attributes to a few levels so similarities tie, under
// the three built-in sims or a custom symmetric Func; matrix instances
// quantize sims to quarters, zeros included. Capacities may be zero,
// conflicts are dense, and a stateless Feasible predicate may block pairs.
func FuzzGreedySweepEqualsHeap(f *testing.F) {
	f.Add(int64(1), uint8(8), uint16(40), uint8(2), uint8(0), uint8(0))
	f.Add(int64(2), uint8(30), uint16(600), uint8(3), uint8(1), uint8(5))
	f.Add(int64(3), uint8(1), uint16(1), uint8(1), uint8(2), uint8(0))
	f.Add(int64(4), uint8(25), uint16(300), uint8(4), uint8(3), uint8(9))
	f.Add(int64(5), uint8(12), uint16(530), uint8(1), uint8(4), uint8(3))
	f.Add(int64(6), uint8(31), uint16(200), uint8(2), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nvB uint8, nuB uint16, levels, kind, feasB uint8) {
		nv, nu := 1+int(nvB)%32, 1+int(nuB)%640
		q := 1 + int(levels)%4
		rng := rand.New(rand.NewSource(seed))
		events := make([]Event, nv)
		for v := range events {
			events[v] = Event{Cap: rng.Intn(12)}
		}
		users := make([]User, nu)
		for u := range users {
			users[u] = User{Cap: rng.Intn(4)}
		}
		cf := conflict.Random(rng, nv, rng.Float64())
		var in *Instance
		var err error
		if kind%5 == 4 {
			matrix := make([][]float64, nv)
			for v := range matrix {
				matrix[v] = make([]float64, nu)
				for u := range matrix[v] {
					matrix[v][u] = float64(rng.Intn(5)) / 4
				}
			}
			in, err = NewMatrixInstance(events, users, cf, matrix)
		} else {
			d := 1 + rng.Intn(5)
			const maxT = 10.0
			attrs := func() sim.Vector {
				a := make(sim.Vector, d)
				for j := range a {
					a[j] = float64(rng.Intn(q+1)) * maxT / float64(q)
				}
				return a
			}
			for v := range events {
				events[v].Attrs = attrs()
			}
			for u := range users {
				users[u].Attrs = attrs()
			}
			fn := []sim.Func{
				sim.Euclidean(d, maxT), sim.Cosine(), sim.Manhattan(d, maxT),
				func(a, b sim.Vector) float64 { // symmetric bit for bit: |a-b| = |b-a|
					var s float64
					for i := range a {
						s += math.Abs(a[i] - b[i])
					}
					return 1 / (1 + s)
				},
			}[kind%5]
			in, err = NewInstance(events, users, cf, fn)
		}
		if err != nil {
			t.Fatal(err)
		}
		var feasible func(v, u int) bool
		if feasB != 0 {
			feasible = func(v, u int) bool { return (v*31+u*17+int(feasB))%7 != 0 }
		}
		sweep := GreedyOpts(in, GreedyOptions{Feasible: feasible})
		heap := GreedyOpts(in, GreedyOptions{Index: IndexSorted, Feasible: feasible})
		requireSameMatching(t, fmt.Sprintf("%dx%d/q%d/kind%d/feas%d", nv, nu, q, kind%5, feasB), sweep, heap)
	})
}

// TestGreedySweepBudgetFallback lowers the sweep's pair budget below the
// instances' live pairs: the default solve then runs the heap loop (its
// decided-pair count is the traced run's step count) and returns the
// sweep's matching.
func TestGreedySweepBudgetFallback(t *testing.T) {
	pops := obs.Default().Counter("geacc_greedy_pops_total")
	rng := rand.New(rand.NewSource(5))
	for i, in := range []*Instance{
		randVectorInstance(rng, 30, 200, 3, 20, 3, 0.4),
		randMatrixInstance(rng, 20, 150, 10, 2, 0.6),
	} {
		sweep := Greedy(in)
		steps := 0
		GreedyOpts(in, GreedyOptions{Trace: func(TraceStep) { steps++ }})

		saved := greedySweepMaxPairs
		greedySweepMaxPairs = in.NumEvents()*in.NumUsers() - 1
		p0 := pops.Value()
		fallback := Greedy(in)
		decided := pops.Value() - p0
		greedySweepMaxPairs = saved

		if decided != int64(steps) {
			t.Fatalf("instance %d: over budget the solve decided %d pairs, the heap loop pops %d", i, decided, steps)
		}
		requireSameMatching(t, fmt.Sprintf("instance %d", i), fallback, sweep)
	}
}

// TestGreedySweepCanceled cancels the sweep in each phase: a context
// canceled before the solve stops the scoring pass at its first poll, and
// one canceled from the Feasible hook stops the scan within
// greedyCtxStride examined pairs. GreedyCtx returns ctx's error both times.
func TestGreedySweepCanceled(t *testing.T) {
	kernel := obs.Default().Counter("geacc_sim_kernel_pairs_total")
	in := randVectorInstance(rand.New(rand.NewSource(9)), 60, 400, 3, 50, 4, 0.2)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k0 := kernel.Value()
	m, err := GreedyCtx(ctx, in, GreedyOptions{})
	if !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("canceled before the solve: m=%v err=%v", m, err)
	}
	if scored := kernel.Value() - k0; scored >= int64(in.NumEvents()*in.NumUsers()) {
		t.Fatalf("canceled before the solve, the sweep still scored %d pairs", scored)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	m, err = GreedyCtx(ctx, in, GreedyOptions{Feasible: func(int, int) bool {
		calls++
		cancel()
		return true
	}})
	if !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("canceled mid-scan: m=%v err=%v", m, err)
	}
	if calls == 0 || calls > greedyCtxStride {
		t.Fatalf("canceled mid-scan after the first Feasible call, the sweep made %d", calls)
	}
}

// TestGreedyScratchDropsBigBuffers checks that releasing a scratch keeps a
// sweep buffer of up to maxPooledSweepBytes for the next solve and drops a
// larger one.
func TestGreedyScratchDropsBigBuffers(t *testing.T) {
	g := acquireGreedyScratch(1, 1)
	g.sims = make([]float64, maxPooledSweepBytes/8)
	g.keys = make([]uint64, maxPooledSweepBytes/8+1)
	releaseGreedyScratch(g)
	if g.sims == nil || g.keys != nil {
		t.Fatalf("after release: sims kept %v, keys kept %v; want the 4 MiB table kept and the larger one dropped",
			g.sims != nil, g.keys != nil)
	}
}
