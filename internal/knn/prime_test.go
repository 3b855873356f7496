package knn

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/sim"
)

// TestBestFirstMatchesSort: for random pair lists with heavy similarity
// ties (ids stay distinct), every k and every partition budget — including
// 0 and 1, which force the heap fallback at once or after one partition —
// the returned prefix is exactly the first k pairs of the fully sorted
// list. Long lists with small k take the sampled first pass; some place
// the best pairs exactly where the sample is drawn, so the sampled pivot
// leaves fewer than k pairs in front.
func TestBestFirstMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	byOrder := func(a, b Pair) int {
		if before(a, b) {
			return -1
		}
		return 1
	}
	for trial := 0; trial < 600; trial++ {
		n, k := rng.Intn(120), 0
		if trial%3 == 0 {
			n = sampleMin + rng.Intn(600)
			k = 1 + rng.Intn(n/sampleRatio)
		}
		ps := make([]Pair, n)
		for i, id := range rng.Perm(n) {
			ps[i] = Pair{ID: id, S: float64(rng.Intn(1+trial%9)) / 8}
		}
		if trial%6 == 0 {
			// The sampled slots get the best pairs.
			slices.SortFunc(ps, byOrder)
			for i := 0; i < sampleSize; i++ {
				j := i * n / sampleSize
				ps[i], ps[j] = ps[j], ps[i]
			}
		}
		want := slices.Clone(ps)
		slices.SortFunc(want, byOrder)
		if k == 0 {
			k = 1 + rng.Intn(n+2)
		}
		for _, budget := range []int{-1, 0, 1, 2} {
			got := slices.Clone(ps)
			var best []Pair
			if budget < 0 {
				best = bestFirst(got, k)
			} else if n > 0 {
				partialSort(got, min(k, n), budget)
				best = got[:min(k, n)]
			}
			if !slices.Equal(best, want[:min(k, n)]) {
				t.Fatalf("trial %d n=%d k=%d budget=%d:\n got %v\nwant %v", trial, n, k, budget, best, want[:min(k, n)])
			}
			slices.SortFunc(got, func(a, b Pair) int { return a.ID - b.ID })
			for i, p := range got {
				if p.ID != i {
					t.Fatalf("trial %d budget=%d: bestFirst lost or duplicated pairs", trial, budget)
				}
			}
		}
	}
}

// primeWorld is one random two-sided run: events and users, each side's
// kernel and a monotone alive set that kills nodes as the test goes.
type primeWorld struct {
	events, users []sim.Vector
	f             sim.Func
	deadV, deadU  []bool
}

func newPrimeWorld(rng *rand.Rand, nv, nu int, grid bool) *primeWorld {
	w := &primeWorld{f: sim.Euclidean(testDim, testMaxT)}
	gen := testData
	if grid {
		gen = gridData // similarity ties
	}
	w.events, w.users = gen(rng, nv), gen(rng, nu)
	w.deadV, w.deadU = make([]bool, nv), make([]bool, nu)
	for v := range w.deadV {
		w.deadV[v] = rng.Intn(8) == 0
	}
	for u := range w.deadU {
		w.deadU[u] = rng.Intn(8) == 0
	}
	return w
}

// indexes builds the run's two Chunked indexes over fresh live sets.
func (w *primeWorld) indexes() (users, events *Chunked) {
	lu, lv := &Live{}, &Live{}
	lu.Reset(len(w.users), func(u int) bool { return !w.deadU[u] })
	lv.Reset(len(w.events), func(v int) bool { return !w.deadV[v] })
	return NewChunkedKernel(sim.NewKernel(w.users, w.f), 0, lu),
		NewChunkedKernel(sim.NewKernel(w.events, w.f), 0, lv)
}

// TestPrimeChunkedMatchesLazy runs the same schedule twice, once with
// lazily created streams and once with PrimeChunked's. Both start like
// Greedy's initialization — one Next on every live event's stream, then
// on every live user's — then call Next on random streams of both sides
// with random kills in between. Every Next must agree bit for bit, and the
// primed run must score exactly |live V|·|live U| fewer kernel pairs: the
// user side's first refills, and nothing more. Sizes above simBatchBlock
// put user blocks' seams inside the priming pass; grid data forces ties.
func TestPrimeChunkedMatchesLazy(t *testing.T) {
	pairs := obs.Default().Counter("geacc_sim_kernel_pairs_total")
	for trial := 0; trial < 20; trial++ {
		shape := [][2]int{{1, 1}, {5, 40}, {40, 5}, {30, simBatchBlock + 9}, {70, 300}}[trial%5]
		nv, nu := shape[0], shape[1]
		run := func(primed bool) (log []Pair, scored, area int64) {
			rng := rand.New(rand.NewSource(int64(trial)))
			w := newPrimeWorld(rng, nv, nu, trial%2 == 1)
			users, events := w.indexes()
			area = int64(len(events.live.ids)) * int64(len(users.live.ids))
			vs, us := make([]Stream, nv), make([]Stream, nu)
			next := func(s Stream) {
				id, sv, ok := s.Next()
				log = append(log, Pair{ID: id, S: sv})
				if !ok {
					log = append(log, Pair{ID: -1})
				}
			}
			k0 := pairs.Value()
			if primed {
				if err := PrimeChunked(context.Background(), users, events, vs, us); err != nil {
					t.Fatal(err)
				}
			}
			for _, v := range events.live.ids {
				if vs[v] == nil {
					vs[v] = users.Stream(w.events[v])
				}
				next(vs[v])
			}
			for _, u := range users.live.ids {
				if us[u] == nil {
					us[u] = events.Stream(w.users[u])
				}
				next(us[u])
			}
			for step := 0; step < 6*(nv+nu); step++ {
				if v := rng.Intn(nv); rng.Intn(2) == 0 && vs[v] != nil {
					next(vs[v])
				} else if u := rng.Intn(nu); us[u] != nil {
					next(us[u])
				}
				if rng.Intn(5) == 0 {
					w.deadV[rng.Intn(nv)] = true
				}
				if rng.Intn(5) == 0 {
					w.deadU[rng.Intn(nu)] = true
				}
			}
			return log, pairs.Value() - k0, area
		}
		lazyLog, lazyPairs, area := run(false)
		primedLog, primedPairs, _ := run(true)
		if !slices.Equal(lazyLog, primedLog) {
			t.Fatalf("trial %d (%dx%d): primed streams diverge from lazy ones", trial, nv, nu)
		}
		if primedPairs != lazyPairs-area {
			t.Fatalf("trial %d (%dx%d): primed run scored %d kernel pairs, want lazy %d less |V|·|U| %d",
				trial, nv, nu, primedPairs, lazyPairs, area)
		}
	}
}

// TestPrimeChunkedCancel: a cancelled context stops the pass and surfaces
// its error.
func TestPrimeChunkedCancel(t *testing.T) {
	w := newPrimeWorld(rand.New(rand.NewSource(1)), 200, 400, false)
	users, events := w.indexes()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := PrimeChunked(ctx, users, events, make([]Stream, 200), make([]Stream, 400))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("PrimeChunked under a cancelled context returned %v", err)
	}
}
