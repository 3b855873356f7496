package knn

import (
	"math/rand"
	"testing"

	"github.com/ebsnlab/geacc/internal/sim"
)

// TestChunkedBlockBoundary exercises refills over data sets whose size
// straddles the simBatchBlock granularity, so the batched scan's last
// partial block and the block seams are all hit, and compares the full
// stream against the Sorted oracle pair for pair.
func TestChunkedBlockBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := sim.Euclidean(testDim, testMaxT)
	for _, n := range []int{simBatchBlock - 1, simBatchBlock, simBatchBlock + 1, 2*simBatchBlock + 37} {
		data := testData(rng, n)
		want := drain(NewSortedKernel(sim.NewKernel(data, f)).Stream(data[0]), n)
		for _, chunk := range []int{1, 3, DefaultChunkSize, 100} {
			got := drain(NewChunkedKernel(sim.NewKernel(data, f), chunk, nil).Stream(data[0]), n)
			if len(got) != len(want) {
				t.Fatalf("n=%d chunk=%d: %d pairs, oracle %d", n, chunk, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d chunk=%d pair %d: %+v, oracle %+v", n, chunk, i, got[i], want[i])
				}
			}
		}
	}
}

// TestChunkedChunkSizeInvariance: the first refill size only changes how
// many neighbors each scan materializes, never the yielded stream — same
// ids, same bit-level similarities, same order — including refills whose
// boundaries do not align with simBatchBlock.
func TestChunkedChunkSizeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := sim.Euclidean(testDim, testMaxT)
	n := 2*simBatchBlock + 101
	data := testData(rng, n)
	queries := testData(rng, 4)
	for _, q := range queries {
		want := drain(NewChunkedKernel(sim.NewKernel(data, f), DefaultChunkSize, nil).Stream(q), n)
		for _, chunk := range []int{1, DefaultChunkSize, 50} {
			got := drain(NewChunkedKernel(sim.NewKernel(data, f), chunk, nil).Stream(q), n)
			if len(got) != len(want) {
				t.Fatalf("chunk=%d changed stream length: %d vs %d", chunk, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("chunk=%d pair %d: %+v vs %+v", chunk, i, got[i], want[i])
				}
			}
		}
	}
}

// TestKernelConstructorsShareStore: the *Kernel constructors must index the
// kernel's vectors, not a copy, and behave exactly like their (data, f)
// counterparts.
func TestKernelConstructorsShareStore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := sim.Euclidean(testDim, testMaxT)
	data := testData(rng, 120)
	k := sim.NewKernel(data, f)
	q := data[7]
	want := drain(NewSortedKernel(sim.NewKernel(data, f)).Stream(q), 120)
	for name, ix := range map[string]Index{
		"sorted":  NewSortedKernel(k),
		"chunked": NewChunkedKernel(k, 0, nil),
	} {
		if ix.Len() != len(data) {
			t.Fatalf("%s: Len %d, want %d", name, ix.Len(), len(data))
		}
		got := drain(ix.Stream(q), 120)
		if len(got) != len(want) {
			t.Fatalf("%s: %d pairs, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s pair %d: %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
	// VA-file keeps its own contract; just check it runs over a shared
	// kernel and yields self as the first neighbor.
	id, sv, ok := NewVAFileKernel(k, 6).Stream(q).Next()
	if !ok || id != 7 || sv != 1 {
		t.Fatalf("vafile: first neighbor (%d, %v, %v), want (7, 1, true)", id, sv, ok)
	}
}
