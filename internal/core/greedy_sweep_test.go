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

// FuzzGreedySweepEqualsHeap checks the sweep against the heap-loop oracle
// (heapGreedy): the same pairs in insertion order, the same sim bits and
// the same MaxSum bits, traced or not. The traces hold the same accepts,
// and the oracle's pops whose endpoints both had capacity are a
// subsequence of the sweep's steps (DESIGN.md, "The trace"). Vector
// instances quantize attributes to a few levels so similarities tie, under
// the three built-in sims or a custom symmetric Func; matrix instances
// quantize sims to quarters, zeros included. Capacities may be zero and
// conflicts are dense. A stateless Feasible predicate, or a budget whose
// predicate reads the spending earlier accepts left, may block pairs. The
// pair budget is lowered by bandB, so bands run and split ties.
func FuzzGreedySweepEqualsHeap(f *testing.F) {
	f.Add(int64(1), uint8(8), uint16(40), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(30), uint16(600), uint8(3), uint8(1), uint8(5), uint8(3))
	f.Add(int64(3), uint8(1), uint16(1), uint8(1), uint8(2), uint8(0), uint8(1))
	f.Add(int64(4), uint8(25), uint16(300), uint8(4), uint8(3), uint8(9), uint8(17))
	f.Add(int64(5), uint8(12), uint16(530), uint8(1), uint8(4), uint8(3), uint8(60))
	f.Add(int64(6), uint8(31), uint16(200), uint8(2), uint8(4), uint8(0), uint8(2))
	f.Add(int64(7), uint8(20), uint16(120), uint8(1), uint8(9), uint8(130), uint8(5))
	f.Add(int64(8), uint8(9), uint16(77), uint8(0), uint8(0), uint8(200), uint8(0))
	f.Add(int64(58), uint8(168), uint16(664), uint8(168), uint8(90), uint8(129), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, nvB uint8, nuB uint16, levels, kind, feasB, bandB uint8) {
		nv, nu := 1+int(nvB)%32, 1+int(nuB)%640
		q := 1 + int(levels)%4
		rng := rand.New(rand.NewSource(seed))
		in := fuzzGreedyInstance(t, rng, nv, nu, q, int(kind)%5)
		name := fmt.Sprintf("%dx%d/q%d/kind%d/feas%d/band%d", nv, nu, q, kind%5, feasB, bandB)

		// opts makes one run's options with fresh budget state; budgeted
		// cases go through BudgetedGreedyOpts on the sweep side.
		var b *Budget
		var feasible func(v, u int) bool
		switch {
		case feasB >= 128:
			b = &Budget{Prices: make([]float64, nv), Budgets: make([]float64, nu)}
			for v := range b.Prices {
				b.Prices[v] = float64(rng.Intn(4)) / 2
			}
			for u := range b.Budgets {
				b.Budgets[u] = float64(rng.Intn(6)) / 2
			}
		case feasB != 0:
			feasible = func(v, u int) bool { return (v*31+u*17+int(feasB))%7 != 0 }
		}
		sweep := func(trace func(TraceStep)) *Matching {
			opt := GreedyOptions{Feasible: feasible, Trace: trace}
			if b == nil {
				return GreedyOpts(in, opt)
			}
			m, err := BudgetedGreedyOpts(in, b, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return m
		}
		opts := func(trace func(TraceStep)) GreedyOptions {
			opt := GreedyOptions{Feasible: feasible, Trace: trace}
			if b != nil {
				opt = b.greedyOptions(opt)
			}
			return opt
		}

		var heapLog, sweepLog []TraceStep
		oracle, _ := heapGreedy(in, opts(func(s TraceStep) { heapLog = append(heapLog, s) }))
		if bandB != 0 {
			saved := greedySweepMaxPairs
			greedySweepMaxPairs = 2 + nv*nu/(1+int(bandB)%64)
			defer func() { greedySweepMaxPairs = saved }()
		}
		requireSameMatching(t, name+"/untraced", sweep(nil), oracle)
		requireSameMatching(t, name+"/traced", sweep(func(s TraceStep) { sweepLog = append(sweepLog, s) }), oracle)
		requireTraceContains(t, name, sweepLog, heapLog)
	})
}

// fuzzGreedyInstance builds a fuzz instance: kind 4 is a matrix of sims
// quantized to quarters, kinds 0-3 are vectors on q+1 levels per
// coordinate under Euclidean, Cosine, Manhattan or a custom symmetric Func.
func fuzzGreedyInstance(t *testing.T, rng *rand.Rand, nv, nu, q, kind int) *Instance {
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
	if kind == 4 {
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
		}[kind]
		in, err = NewInstance(events, users, cf, fn)
	}
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// requireTraceContains fails unless the sweep's steps and the heap loop's
// pops hold the same accepts in the same order, and the pops whose
// endpoints both had capacity (accepts and "conflict" rejections) are a
// subsequence of the sweep's steps, equal in every field and sim bit.
func requireTraceContains(t *testing.T, name string, sweep, heap []TraceStep) {
	t.Helper()
	same := func(a, b TraceStep) bool {
		return a == b && math.Float64bits(a.Sim) == math.Float64bits(b.Sim)
	}
	i := 0
	for _, h := range heap {
		if h.Reason != "" && h.Reason != "conflict" {
			continue
		}
		for i < len(sweep) && !same(sweep[i], h) {
			if sweep[i].Accepted {
				t.Fatalf("%s: the sweep accepts %+v where the heap loop's next step is %+v", name, sweep[i], h)
			}
			i++
		}
		if i == len(sweep) {
			t.Fatalf("%s: the heap loop's step %+v is missing from the sweep's trace", name, h)
		}
		i++
	}
	for ; i < len(sweep); i++ {
		if sweep[i].Accepted {
			t.Fatalf("%s: the sweep accepts %+v after the heap loop's last accept", name, sweep[i])
		}
	}
	for _, s := range sweep {
		if s.Reason != "" && s.Reason != "conflict" || s.Accepted != (s.Reason == "") {
			t.Fatalf("%s: sweep step %+v", name, s)
		}
	}
}

// TestGreedySweepBudgetFallback lowers the pair budget below the
// instances' live pairs: the solve then runs in bands, which the
// "greedy/band" spans and a kernel count above |V|·|U| show, and returns
// the one-pass sweep's matching bit for bit. Matrix and vector instances,
// with ties, cover both scoring orientations.
func TestGreedySweepBudgetFallback(t *testing.T) {
	kernel := obs.Default().Counter("geacc_sim_kernel_pairs_total")
	rng := rand.New(rand.NewSource(5))
	for i, in := range []*Instance{
		randVectorInstance(rng, 30, 200, 3, 20, 3, 0.4),
		randVectorInstance(rng, 200, 30, 2, 2, 20, 0.1),
		randMatrixInstance(rng, 20, 150, 10, 2, 0.6),
		fuzzGreedyInstance(t, rng, 25, 300, 1, 4),
	} {
		want := Greedy(in)

		saved := greedySweepMaxPairs
		greedySweepMaxPairs = in.NumEvents() * in.NumUsers() / 5
		rec := obs.NewRecorder()
		k0 := kernel.Value()
		got, err := GreedyCtx(obs.ContextWithRecorder(context.Background(), rec), in, GreedyOptions{})
		scored := kernel.Value() - k0
		greedySweepMaxPairs = saved
		if err != nil {
			t.Fatal(err)
		}

		bands := 0
		for _, sp := range rec.Spans() {
			if sp.Name == "greedy/band" {
				bands++
			}
		}
		if bands < 2 || (in.Matrix == nil && scored <= int64(in.NumEvents()*in.NumUsers())) {
			t.Fatalf("instance %d: %d bands, %d kernel pairs; want two or more bands", i, bands, scored)
		}
		requireSameMatching(t, fmt.Sprintf("instance %d", i), got, want)
	}
}

// TestGreedyBandsSkipBlockedPairs runs a deep sweep in bands: every pair
// of events conflicts and the events never fill, so users keep capacity
// while nearly all their pairs are refused. Blocked pairs do not count
// towards a band's budget, so the bands take a fraction of the passes
// that one band per k decided pairs would. Traced, the bands hold the
// blocked pairs and the trace equals the one-pass sweep's step for step;
// untraced, they leave them out. Both return the one-pass matching bit
// for bit.
func TestGreedyBandsSkipBlockedPairs(t *testing.T) {
	in := randVectorInstance(rand.New(rand.NewSource(11)), 40, 500, 3, 200, 4, 1)
	var want []TraceStep
	oneTrace := GreedyOpts(in, GreedyOptions{Trace: func(s TraceStep) { want = append(want, s) }})

	saved := greedySweepMaxPairs
	defer func() { greedySweepMaxPairs = saved }()
	greedySweepMaxPairs = in.NumEvents() * in.NumUsers() / 16
	k := greedySweepMaxPairs / 2
	bands := func(opt GreedyOptions) (*Matching, int) {
		rec := obs.NewRecorder()
		m, err := GreedyCtx(obs.ContextWithRecorder(context.Background(), rec), in, opt)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, sp := range rec.Spans() {
			if sp.Name == "greedy/band" {
				n++
			}
		}
		return m, n
	}
	var got []TraceStep
	traced, tracedBands := bands(GreedyOptions{Trace: func(s TraceStep) { got = append(got, s) }})
	untraced, untracedBands := bands(GreedyOptions{})
	requireSameMatching(t, "traced", traced, oneTrace)
	requireSameMatching(t, "untraced", untraced, oneTrace)
	if len(got) != len(want) {
		t.Fatalf("banded trace holds %d steps, the one-pass trace %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] || math.Float64bits(got[i].Sim) != math.Float64bits(want[i].Sim) {
			t.Fatalf("step %d: %+v in bands, %+v in one pass", i, got[i], want[i])
		}
	}
	t.Logf("%d steps, k = %d; %d bands traced, %d untraced", len(want), k, tracedBands, untracedBands)
	if len(want) < 8*k || tracedBands != untracedBands || 4*untracedBands > len(want)/k {
		t.Fatalf("%d steps, k = %d: %d bands traced, %d untraced; want a deep sweep, and the same bands both ways, at most a quarter of one per k steps",
			len(want), k, tracedBands, untracedBands)
	}
}

// TestGreedySweepCanceled cancels the sweep in each phase, in one pass and
// in bands: a context canceled before the solve stops the scoring pass at
// its first poll, and one canceled from the Feasible hook stops the scan
// within greedyCtxStride visited pairs. GreedyCtx returns ctx's error
// every time.
func TestGreedySweepCanceled(t *testing.T) {
	kernel := obs.Default().Counter("geacc_sim_kernel_pairs_total")
	in := randVectorInstance(rand.New(rand.NewSource(9)), 60, 400, 3, 50, 4, 0.2)
	saved := greedySweepMaxPairs
	defer func() { greedySweepMaxPairs = saved }()
	for _, budget := range []int{saved, in.NumEvents() * in.NumUsers() / 3} {
		greedySweepMaxPairs = budget

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		k0 := kernel.Value()
		m, err := GreedyCtx(ctx, in, GreedyOptions{})
		if !errors.Is(err, context.Canceled) || m != nil {
			t.Fatalf("budget %d, canceled before the solve: m=%v err=%v", budget, m, err)
		}
		if scored := kernel.Value() - k0; scored >= int64(in.NumEvents()*in.NumUsers()) {
			t.Fatalf("budget %d, canceled before the solve, the sweep still scored %d pairs", budget, scored)
		}

		ctx, cancel = context.WithCancel(context.Background())
		calls := 0
		m, err = GreedyCtx(ctx, in, GreedyOptions{Feasible: func(int, int) bool {
			calls++
			cancel()
			return true
		}})
		cancel()
		if !errors.Is(err, context.Canceled) || m != nil {
			t.Fatalf("budget %d, canceled mid-scan: m=%v err=%v", budget, m, err)
		}
		if calls == 0 || calls > greedyCtxStride {
			t.Fatalf("budget %d, canceled mid-scan after the first Feasible call, the sweep made %d", budget, calls)
		}
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
