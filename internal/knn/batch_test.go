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
		want := drain(NewSorted(data, f).Stream(data[0]), n)
		for _, chunk := range []int{1, 3, DefaultChunkSize, 100} {
			got := drain(NewChunked(data, f, chunk).Stream(data[0]), n)
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

// TestParallelMatchesChunkedAcrossBlocks is the determinism property for the
// batched refill: Parallel must return the identical stream — same ids, same
// bit-level similarities, same order — as Chunked for every worker count and
// chunk size, including shard boundaries that do not align with
// simBatchBlock.
func TestParallelMatchesChunkedAcrossBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := sim.Euclidean(testDim, testMaxT)
	n := 2*simBatchBlock + 101
	data := testData(rng, n)
	queries := testData(rng, 4)
	for _, q := range queries {
		want := drain(NewChunked(data, f, DefaultChunkSize).Stream(q), n)
		for _, workers := range []int{1, 2, 3, 5, 16} {
			for _, chunk := range []int{1, DefaultChunkSize, 50} {
				got := drain(NewParallel(data, f, chunk, workers).Stream(q), n)
				ref := drain(NewChunked(data, f, chunk).Stream(q), n)
				if len(got) != len(ref) {
					t.Fatalf("workers=%d chunk=%d: %d pairs, chunked %d", workers, chunk, len(got), len(ref))
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("workers=%d chunk=%d pair %d: parallel %+v, chunked %+v", workers, chunk, i, got[i], ref[i])
					}
				}
				// Chunk size must not change the yielded sequence either.
				if len(ref) != len(want) {
					t.Fatalf("chunk=%d changed stream length: %d vs %d", chunk, len(ref), len(want))
				}
				for i := range ref {
					if ref[i] != want[i] {
						t.Fatalf("chunk=%d pair %d: %+v vs %+v", chunk, i, ref[i], want[i])
					}
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
	want := drain(NewSorted(data, f).Stream(q), 120)
	for name, ix := range map[string]Index{
		"sorted":   NewSortedKernel(k),
		"chunked":  NewChunkedKernel(k, 0, nil),
		"parallel": NewParallelKernel(k, 0, 0),
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
	// VA-file and LSH keep their own contracts; just check they run over a
	// shared kernel and yield self as the first neighbor.
	for name, ix := range map[string]Index{
		"vafile": NewVAFileKernel(k, 6),
		"lsh":    NewLSHKernel(k, 8, 4, 1),
	} {
		id, sv, ok := ix.Stream(q).Next()
		if !ok || id != 7 || sv != 1 {
			t.Fatalf("%s: first neighbor (%d, %v, %v), want (7, 1, true)", name, id, sv, ok)
		}
	}
}
