package knn

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/ebsnlab/geacc/internal/sim"
)

const (
	testDim  = 3
	testMaxT = 100.0
)

func testData(rng *rand.Rand, n int) []sim.Vector {
	data := make([]sim.Vector, n)
	for i := range data {
		v := make(sim.Vector, testDim)
		for j := range v {
			v[j] = rng.Float64() * testMaxT
		}
		data[i] = v
	}
	return data
}

// gridData produces data with many duplicate coordinates (and therefore
// similarity ties) to exercise tie-breaking.
func gridData(rng *rand.Rand, n int) []sim.Vector {
	data := make([]sim.Vector, n)
	for i := range data {
		v := make(sim.Vector, testDim)
		for j := range v {
			v[j] = float64(rng.Intn(4)) * (testMaxT / 3)
		}
		data[i] = v
	}
	return data
}

func drain(s Stream, max int) []Pair {
	var out []Pair
	for len(out) < max {
		id, sv, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, Pair{ID: id, S: sv})
	}
	return out
}

// normalizeTies re-sorts runs of equal similarity by ascending id. The
// distance-ordered indexes (idistance, vafile) may legally permute items
// whose distinct distances collide to one similarity value in floating
// point; normalizing both sides makes the comparison exact again.
func normalizeTies(ps []Pair) []Pair {
	out := append([]Pair(nil), ps...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].S != out[j].S {
			return out[i].S > out[j].S
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func buildAll(data []sim.Vector, f sim.Func) map[string]Index {
	return map[string]Index{
		"sorted":    NewSortedKernel(sim.NewKernel(data, f)),
		"chunked":   NewChunkedKernel(sim.NewKernel(data, f), 4, nil),
		"idistance": NewIDistance(data, f, 4),
		"vafile":    NewVAFileKernel(sim.NewKernel(data, f), 4),
	}
}

func TestAllIndexesMatchOracle(t *testing.T) {
	f := sim.Euclidean(testDim, testMaxT)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		data := testData(rng, 50+rng.Intn(100))
		indexes := buildAll(data, f)
		oracle := indexes["sorted"]
		for q := 0; q < 5; q++ {
			query := testData(rng, 1)[0]
			want := normalizeTies(drain(oracle.Stream(query), len(data)))
			for name, ix := range indexes {
				got := normalizeTies(drain(ix.Stream(query), len(data)))
				if len(got) != len(want) {
					t.Fatalf("trial %d %s: %d neighbors, oracle %d", trial, name, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID {
						t.Fatalf("trial %d %s neighbor %d: id %d, oracle %d", trial, name, i, got[i].ID, want[i].ID)
					}
					if got[i].S != want[i].S {
						t.Fatalf("trial %d %s neighbor %d: sim %v, oracle %v", trial, name, i, got[i].S, want[i].S)
					}
				}
			}
		}
	}
}

func TestAllIndexesMatchOracleWithTies(t *testing.T) {
	f := sim.Euclidean(testDim, testMaxT)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		data := gridData(rng, 80)
		indexes := buildAll(data, f)
		query := gridData(rng, 1)[0]
		want := normalizeTies(drain(indexes["sorted"].Stream(query), len(data)))
		for name, ix := range indexes {
			got := normalizeTies(drain(ix.Stream(query), len(data)))
			if len(got) != len(want) {
				t.Fatalf("%s: %d neighbors, oracle %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s neighbor %d = %+v, oracle %+v", name, i, got[i], want[i])
				}
			}
		}
	}
}

func TestStreamsAreNonIncreasing(t *testing.T) {
	f := sim.Euclidean(testDim, testMaxT)
	rng := rand.New(rand.NewSource(3))
	data := testData(rng, 200)
	for name, ix := range buildAll(data, f) {
		query := testData(rng, 1)[0]
		s := ix.Stream(query)
		prev := 2.0
		for {
			_, sv, ok := s.Next()
			if !ok {
				break
			}
			if sv > prev {
				t.Fatalf("%s: similarity increased: %v after %v", name, sv, prev)
			}
			if sv <= 0 {
				t.Fatalf("%s: yielded non-positive similarity %v", name, sv)
			}
			prev = sv
		}
	}
}

func TestZeroSimilarityOmitted(t *testing.T) {
	// With d=1 and maxT=10, the point at 10 has similarity 0 to a query at 0
	// and must be omitted by every index.
	f := sim.Euclidean(1, 10)
	data := []sim.Vector{{10}, {5}, {0}}
	for name, ix := range map[string]Index{
		"sorted":    NewSortedKernel(sim.NewKernel(data, f)),
		"chunked":   NewChunkedKernel(sim.NewKernel(data, f), 2, nil),
		"idistance": NewIDistance(data, f, 2),
		"vafile":    NewVAFileKernel(sim.NewKernel(data, f), 2),
	} {
		got := drain(ix.Stream(sim.Vector{0}), 10)
		if len(got) != 2 {
			t.Fatalf("%s: got %d neighbors, want 2 (zero-sim point must be dropped): %+v", name, len(got), got)
		}
		if got[0].ID != 2 || got[1].ID != 1 {
			t.Fatalf("%s: wrong order %+v", name, got)
		}
	}
}

func TestEmptyIndex(t *testing.T) {
	f := sim.Euclidean(testDim, testMaxT)
	var data []sim.Vector
	for name, ix := range map[string]Index{
		"sorted":    NewSortedKernel(sim.NewKernel(data, f)),
		"chunked":   NewChunkedKernel(sim.NewKernel(data, f), 0, nil),
		"idistance": NewIDistance(data, f, 3),
		"vafile":    NewVAFileKernel(sim.NewKernel(data, f), 3),
	} {
		if ix.Len() != 0 {
			t.Errorf("%s: Len = %d", name, ix.Len())
		}
		if _, _, ok := ix.Stream(make(sim.Vector, testDim)).Next(); ok {
			t.Errorf("%s: empty index yielded a neighbor", name)
		}
	}
}

func TestSingleItemIndex(t *testing.T) {
	f := sim.Euclidean(testDim, testMaxT)
	data := []sim.Vector{{1, 2, 3}}
	for name, ix := range buildAll(data, f) {
		got := drain(ix.Stream(sim.Vector{1, 2, 3}), 5)
		if len(got) != 1 || got[0].ID != 0 || got[0].S != 1 {
			t.Errorf("%s: got %+v", name, got)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	f := sim.Euclidean(testDim, testMaxT)
	// All points identical: every index must yield them in id order.
	data := []sim.Vector{{5, 5, 5}, {5, 5, 5}, {5, 5, 5}, {5, 5, 5}}
	for name, ix := range buildAll(data, f) {
		got := drain(ix.Stream(sim.Vector{5, 5, 4}), 10)
		if len(got) != 4 {
			t.Fatalf("%s: got %d neighbors", name, len(got))
		}
		for i, p := range got {
			if p.ID != i {
				t.Fatalf("%s: ties not in id order: %+v", name, got)
			}
		}
	}
}

func TestChunkedRefillBoundary(t *testing.T) {
	// Exactly chunk-size items, then repeated draining across refills.
	f := sim.Euclidean(1, 100)
	var data []sim.Vector
	for i := 0; i < 16; i++ {
		data = append(data, sim.Vector{float64(i)})
	}
	ix := NewChunkedKernel(sim.NewKernel(data, f), 4, nil)
	got := drain(ix.Stream(sim.Vector{0}), 100)
	if len(got) != 16 {
		t.Fatalf("got %d, want 16", len(got))
	}
	for i, p := range got {
		if p.ID != i {
			t.Fatalf("wrong order at %d: %+v", i, got)
		}
	}
}

func TestLargeRandomEquivalenceProperty(t *testing.T) {
	f := sim.Euclidean(testDim, testMaxT)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := testData(rng, 30+rng.Intn(50))
		query := testData(rng, 1)[0]
		oracle := normalizeTies(drain(NewSortedKernel(sim.NewKernel(data, f)).Stream(query), len(data)))
		for _, ix := range []Index{
			NewChunkedKernel(sim.NewKernel(data, f), 1+rng.Intn(8), nil),
			NewIDistance(data, f, 1+rng.Intn(6)),
			NewVAFileKernel(sim.NewKernel(data, f), uint(1+rng.Intn(8))),
		} {
			got := normalizeTies(drain(ix.Stream(query), len(data)))
			if len(got) != len(oracle) {
				return false
			}
			for i := range got {
				if got[i] != oracle[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIDistanceManyRefsFewPoints(t *testing.T) {
	f := sim.Euclidean(testDim, testMaxT)
	data := []sim.Vector{{1, 1, 1}, {2, 2, 2}}
	ix := NewIDistance(data, f, 10) // m > n must clamp
	got := drain(ix.Stream(sim.Vector{0, 0, 0}), 5)
	if len(got) != 2 || got[0].ID != 0 {
		t.Fatalf("got %+v", got)
	}
}

func BenchmarkChunkedFirstNeighbor(b *testing.B) {
	f := sim.Euclidean(testDim, testMaxT)
	rng := rand.New(rand.NewSource(9))
	data := testData(rng, 10000)
	ix := NewChunkedKernel(sim.NewKernel(data, f), DefaultChunkSize, nil)
	query := testData(rng, 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := ix.Stream(query)
		if _, _, ok := s.Next(); !ok {
			b.Fatal("no neighbor")
		}
	}
}
