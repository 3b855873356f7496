package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

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
					compareGreedyRuns(t, name, in, IndexChunked, IndexSorted)
				}
			}
		}
	}
}

// compareGreedyRuns runs Greedy under two indexes and fails on the first
// difference in the trace log or in the insertion-ordered matching.
func compareGreedyRuns(t *testing.T, name string, in *Instance, a, b IndexKind) {
	t.Helper()
	run := func(kind IndexKind) (*Matching, []TraceStep) {
		var log []TraceStep
		m := GreedyOpts(in, GreedyOptions{Index: kind, Trace: func(s TraceStep) { log = append(log, s) }})
		return m, log
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
	pa, pb := ma.Pairs(), mb.Pairs()
	if len(pa) != len(pb) {
		t.Fatalf("%s: %v matched %d pairs, %v %d", name, a, len(pa), b, len(pb))
	}
	for i := range pa {
		if pa[i].V != pb[i].V || pa[i].U != pb[i].U || math.Float64bits(pa[i].Sim) != math.Float64bits(pb[i].Sim) {
			t.Fatalf("%s: pair %d: %v %+v, %v %+v", name, i, a, pa[i], b, pb[i])
		}
	}
	if math.Float64bits(ma.MaxSum()) != math.Float64bits(mb.MaxSum()) {
		t.Fatalf("%s: MaxSum %v under %v, %v under %v", name, ma.MaxSum(), a, mb.MaxSum(), b)
	}
}
