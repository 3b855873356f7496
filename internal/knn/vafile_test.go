package knn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ebsnlab/geacc/internal/sim"
)

func TestVAFileMatchesOracle(t *testing.T) {
	f := sim.Euclidean(testDim, testMaxT)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		data := testData(rng, 50+rng.Intn(100))
		va := NewVAFileKernel(sim.NewKernel(data, f), 4)
		oracle := NewSortedKernel(sim.NewKernel(data, f))
		query := testData(rng, 1)[0]
		want := normalizeTies(drain(oracle.Stream(query), len(data)))
		got := normalizeTies(drain(va.Stream(query), len(data)))
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d neighbors, oracle %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d neighbor %d = %+v, oracle %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestVAFileMatchesOracleWithTies(t *testing.T) {
	f := sim.Euclidean(testDim, testMaxT)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		data := gridData(rng, 80)
		va := NewVAFileKernel(sim.NewKernel(data, f), 3)
		query := gridData(rng, 1)[0]
		want := normalizeTies(drain(NewSortedKernel(sim.NewKernel(data, f)).Stream(query), len(data)))
		got := normalizeTies(drain(va.Stream(query), len(data)))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d neighbor %d = %+v, oracle %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestVAFileBitWidths(t *testing.T) {
	f := sim.Euclidean(testDim, testMaxT)
	rng := rand.New(rand.NewSource(43))
	data := testData(rng, 120)
	query := testData(rng, 1)[0]
	want := normalizeTies(drain(NewSortedKernel(sim.NewKernel(data, f)).Stream(query), len(data)))
	// Every quantization granularity must stay exact (bounds are
	// conservative); only the candidate-scan efficiency varies. Also covers
	// the clamping of out-of-range widths.
	for _, bits := range []uint{0, 1, 2, 6, 8, 12} {
		va := NewVAFileKernel(sim.NewKernel(data, f), bits)
		got := normalizeTies(drain(va.Stream(query), len(data)))
		if len(got) != len(want) {
			t.Fatalf("bits=%d: %d neighbors, oracle %d", bits, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bits=%d neighbor %d mismatch", bits, i)
			}
		}
	}
}

func TestVAFileEmptyAndDegenerate(t *testing.T) {
	f := sim.Euclidean(testDim, testMaxT)
	va := NewVAFileKernel(sim.NewKernel(nil, f), 4)
	if va.Len() != 0 {
		t.Error("empty Len")
	}
	if _, _, ok := va.Stream(make(sim.Vector, testDim)).Next(); ok {
		t.Error("empty index yielded")
	}
	// All-identical points (degenerate range).
	data := []sim.Vector{{5, 5, 5}, {5, 5, 5}, {5, 5, 5}}
	va = NewVAFileKernel(sim.NewKernel(data, f), 4)
	got := drain(va.Stream(sim.Vector{5, 5, 4}), 10)
	if len(got) != 3 || got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("degenerate data: %+v", got)
	}
}

func TestVAFileZeroSimilarityOmitted(t *testing.T) {
	f := sim.Euclidean(1, 10)
	data := []sim.Vector{{10}, {5}, {0}}
	va := NewVAFileKernel(sim.NewKernel(data, f), 4)
	got := drain(va.Stream(sim.Vector{0}), 10)
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 1 {
		t.Fatalf("got %+v", got)
	}
}

func TestVAFileQueryOutsideDataRange(t *testing.T) {
	// Queries far outside the quantization range exercise the edge clamps.
	f := sim.Euclidean(1, 1000)
	data := []sim.Vector{{100}, {110}, {120}}
	va := NewVAFileKernel(sim.NewKernel(data, f), 4)
	got := drain(va.Stream(sim.Vector{500}), 10)
	if len(got) != 3 || got[0].ID != 2 || got[2].ID != 0 {
		t.Fatalf("high-side query: %+v", got)
	}
	got = drain(va.Stream(sim.Vector{0}), 10)
	if len(got) != 3 || got[0].ID != 0 || got[2].ID != 2 {
		t.Fatalf("low-side query: %+v", got)
	}
}

func TestVAFileEquivalenceProperty(t *testing.T) {
	f := sim.Euclidean(testDim, testMaxT)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := testData(rng, 20+rng.Intn(60))
		query := testData(rng, 1)[0]
		oracle := normalizeTies(drain(NewSortedKernel(sim.NewKernel(data, f)).Stream(query), len(data)))
		got := normalizeTies(drain(NewVAFileKernel(sim.NewKernel(data, f), uint(1+rng.Intn(8))).Stream(query), len(data)))
		if len(got) != len(oracle) {
			return false
		}
		for i := range got {
			if got[i] != oracle[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkVAFileFirstNeighbor(b *testing.B) {
	f := sim.Euclidean(testDim, testMaxT)
	rng := rand.New(rand.NewSource(44))
	data := testData(rng, 10000)
	va := NewVAFileKernel(sim.NewKernel(data, f), 6)
	query := testData(rng, 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := va.Stream(query)
		if _, _, ok := s.Next(); !ok {
			b.Fatal("no neighbor")
		}
	}
}
