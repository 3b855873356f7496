package knn

import (
	"math/rand"
	"testing"

	"github.com/ebsnlab/geacc/internal/sim"
)

// TestChunkedLiveMatchesOracleUnderKills drives several Chunked streams
// that share one Live set while random ids die between Next calls. Every
// stream must yield in strict (sim desc, id asc) order, every id alive
// when yielded must be exactly the next id of the Sorted oracle that is
// still alive, and an exhausted stream may leave only dead ids behind.
// Sizes above simBatchBlock put dead ids on both sides of block
// boundaries, so compaction across blocks is covered.
func TestChunkedLiveMatchesOracleUnderKills(t *testing.T) {
	f := sim.Euclidean(testDim, testMaxT)
	for trial := 0; trial < 24; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := []int{1, 37, simBatchBlock + 1, 1500}[trial%4]
		data := testData(rng, n)
		if trial%3 == 0 {
			data = gridData(rng, n) // similarity ties
		}
		dead := make([]bool, n)
		for id := range dead {
			dead[id] = rng.Float64() < 0.1
		}
		live := &Live{}
		live.Reset(n, func(id int) bool { return !dead[id] })
		kern := sim.NewKernel(data, f)
		ix := NewChunkedKernel(kern, []int{1, 4, 0}[trial%3], live)
		oracle := NewSortedKernel(kern)

		const nq = 5
		queries := testData(rng, nq)
		streams := make([]Stream, nq)
		want := make([][]Pair, nq)
		pos := make([]int, nq)
		last := make([]Pair, nq)
		started, finished := make([]bool, nq), make([]bool, nq)
		for q := range queries {
			streams[q] = ix.Stream(queries[q])
			want[q] = drain(oracle.Stream(queries[q]), n+1)
		}
		for remaining := nq; remaining > 0; {
			q := rng.Intn(nq)
			if finished[q] {
				continue
			}
			id, sv, ok := streams[q].Next()
			if !ok {
				finished[q] = true
				remaining--
				for _, p := range want[q][pos[q]:] {
					if !dead[p.ID] {
						t.Fatalf("trial %d query %d: stream ended before live id %d", trial, q, p.ID)
					}
				}
				continue
			}
			if started[q] && !after(sv, id, last[q].S, last[q].ID) {
				t.Fatalf("trial %d query %d: (%d, %v) out of order after %+v", trial, q, id, sv, last[q])
			}
			started[q], last[q] = true, Pair{ID: id, S: sv}
			if !dead[id] {
				for pos[q] < len(want[q]) && dead[want[q][pos[q]].ID] {
					pos[q]++
				}
				if pos[q] == len(want[q]) || want[q][pos[q]] != (Pair{ID: id, S: sv}) {
					t.Fatalf("trial %d query %d: got (%d, %v), oracle's next live is %v", trial, q, id, sv, want[q][pos[q]:min(pos[q]+1, len(want[q]))])
				}
				pos[q]++
			}
			for k := rng.Intn(3); k > 0; k-- {
				dead[rng.Intn(n)] = true
			}
		}
	}
}
