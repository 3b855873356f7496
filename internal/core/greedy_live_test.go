package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/sim"
)

// TestGreedyChunkedLiveEqualsSorted pins the live-candidate refills of the
// default Chunked index against IndexSorted, which never prunes: identical
// insertion-order pairs, similarity and MaxSum float bits, and Trace logs.
// The shapes are large enough that streams refill several times after most
// of the other side is full, some nodes start with zero capacity, and
// conflict ratios reach 0.8.
func TestGreedyChunkedLiveEqualsSorted(t *testing.T) {
	shapes := [][2]int{{60, 40}, {40, 200}, {100, 300}, {150, 600}}
	for i, shape := range shapes {
		for _, cf := range []float64{0, 0.25, 0.8} {
			for _, capV := range []int{5, 50} {
				for _, cosine := range []bool{false, true} {
					name := fmt.Sprintf("%dx%d/cf%.2f/cv%d/cosine=%v", shape[0], shape[1], cf, capV, cosine)
					rng := rand.New(rand.NewSource(int64(100*i + capV)))
					in := randVectorInstance(rng, shape[0], shape[1], 1+rng.Intn(6), capV, 4, cf)
					if cosine {
						var err error
						if in, err = NewInstance(in.Events, in.Users, in.Conflicts, sim.Cosine()); err != nil {
							t.Fatal(err)
						}
					}
					for u := range in.Users {
						if rng.Intn(10) == 0 {
							in.Users[u].Cap = 0
						}
					}
					in.Events[0].Cap = 0
					compareGreedyRuns(t, name, in, IndexChunked, IndexSorted, nil)
				}
			}
		}
	}
}

// compareGreedyRuns runs Greedy under two indexes and fails on the first
// difference in the trace log or in the insertion-ordered matching. base,
// when non-nil, makes each run's options (a stateful Feasible hook needs
// fresh state per run); its Trace, if any, still sees every step.
func compareGreedyRuns(t *testing.T, name string, in *Instance, a, b IndexKind, base func() GreedyOptions) {
	t.Helper()
	run := func(kind IndexKind) (*Matching, []TraceStep) {
		var log []TraceStep
		var opt GreedyOptions
		if base != nil {
			opt = base()
		}
		inner := opt.Trace
		opt.Index = kind
		opt.Trace = func(s TraceStep) {
			log = append(log, s)
			if inner != nil {
				inner(s)
			}
		}
		return GreedyOpts(in, opt), log
	}
	ma, la := run(a)
	mb, lb := run(b)
	if len(la) != len(lb) {
		t.Fatalf("%s: %v popped %d pairs, %v %d", name, a, len(la), b, len(lb))
	}
	for i := range la {
		if la[i] != lb[i] || math.Float64bits(la[i].Sim) != math.Float64bits(lb[i].Sim) {
			t.Fatalf("%s: pop %d: %v %+v, %v %+v", name, i, a, la[i], b, lb[i])
		}
	}
	requireSameMatching(t, fmt.Sprintf("%s: %v against %v", name, a, b), ma, mb)
}

// FuzzGreedyStreams checks the primed default index against IndexSorted,
// which never prunes or primes, on random vector instances: the same
// TraceStep log, the same pairs in insertion order and the same sim bits.
// Attributes are quantized to a few levels, so similarities tie across
// both sides; some events and users start with zero capacity; conflicts
// are dense; and a budget hook (Feasible, monotone because the spent
// budget only grows) blocks pairs mid-run. The similarity is one of the
// three built-ins or a custom symmetric Func on the generic kernel path.
// Sizes reach past the kernels' 512-id gather blocks.
func FuzzGreedyStreams(f *testing.F) {
	f.Add(int64(1), uint8(8), uint16(40), uint8(2), uint8(0), uint8(0))
	f.Add(int64(2), uint8(30), uint16(600), uint8(3), uint8(1), uint8(40))
	f.Add(int64(3), uint8(1), uint16(1), uint8(1), uint8(2), uint8(255))
	f.Add(int64(4), uint8(25), uint16(300), uint8(4), uint8(3), uint8(9))
	f.Add(int64(5), uint8(12), uint16(530), uint8(1), uint8(0), uint8(120))
	f.Fuzz(func(t *testing.T, seed int64, nvB uint8, nuB uint16, levels, kind, budgetB uint8) {
		nv, nu := 1+int(nvB)%32, 1+int(nuB)%640
		q := 1 + int(levels)%4
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(5)
		const maxT = 10.0
		attrs := func() sim.Vector {
			v := make(sim.Vector, d)
			for i := range v {
				v[i] = float64(rng.Intn(q+1)) * maxT / float64(q)
			}
			return v
		}
		events := make([]Event, nv)
		for v := range events {
			events[v] = Event{Attrs: attrs(), Cap: rng.Intn(12)}
		}
		users := make([]User, nu)
		for u := range users {
			users[u] = User{Attrs: attrs(), Cap: rng.Intn(4)}
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
		}[int(kind)%4]
		in, err := NewInstance(events, users, conflict.Random(rng, nv, rng.Float64()), fn)
		if err != nil {
			t.Fatal(err)
		}
		cost := func(v, u int) float64 { return float64((v*31+u*17)%7) / 4 }
		budget := float64(budgetB) / 2
		withBudget := func() GreedyOptions {
			spent := 0.0
			return GreedyOptions{
				Feasible: func(v, u int) bool { return budgetB == 0 || spent+cost(v, u) <= budget },
				Trace: func(s TraceStep) {
					if s.Accepted {
						spent += cost(s.V, s.U)
					}
				},
			}
		}
		compareGreedyRuns(t, fmt.Sprintf("%dx%d/q%d/kind%d/budget%d", nv, nu, q, kind%4, budgetB), in, IndexChunked, IndexSorted, withBudget)
	})
}
