package mincostflow

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// referenceOrder sorts recs the way adjacency lists have always been
// ordered: cost ascending, then arc id descending.
func referenceOrder(recs []arcRec) []arcRec {
	out := slices.Clone(recs)
	slices.SortFunc(out, func(a, b arcRec) int {
		switch {
		case a.cost < b.cost:
			return -1
		case a.cost > b.cost:
			return 1
		}
		return int(b.arc - a.arc)
	})
	return out
}

// sortCosts returns n costs drawn by mode: 0 from a small palette with
// exact ties, both zeros and the negated costs of residual arcs; 1 from
// uniform [-1, 1); 2 from arbitrary finite bit patterns; 3 one cost.
func sortCosts(rng *rand.Rand, n int, mode uint8) []float64 {
	palette := []float64{0, math.Copysign(0, -1), 0.25, -0.25, 1, -1, 0.5, 1e-300, -1e-300}
	costs := make([]float64, n)
	for i := range costs {
		switch mode % 4 {
		case 0:
			costs[i] = palette[rng.Intn(len(palette))]
		case 1:
			costs[i] = 2*rng.Float64() - 1
		case 2:
			for {
				c := math.Float64frombits(rng.Uint64())
				if !math.IsNaN(c) && !math.IsInf(c, 0) {
					costs[i] = c
					break
				}
			}
		case 3:
			costs[i] = 0.75
		}
	}
	return costs
}

// laidOut returns records for costs as index lays a list out: arc ids
// unique and descending. The ids skip values, as one node's list does.
func laidOut(costs []float64) []arcRec {
	recs := make([]arcRec, len(costs))
	for i, c := range costs {
		recs[i] = arcRec{cost: c, to: int32(i), arc: int32(3 * (len(costs) - i))}
	}
	return recs
}

func sameOrder(t *testing.T, what string, got, want []arcRec) {
	t.Helper()
	for i := range want {
		if got[i].arc != want[i].arc || math.Float64bits(got[i].cost) != math.Float64bits(want[i].cost) || got[i].to != want[i].to {
			t.Fatalf("%s: slot %d holds %+v, want %+v (n=%d)", what, i, got[i], want[i], len(want))
		}
	}
}

// FuzzSortArcs checks sortRecs (bucket sort from bucketMin records on)
// and introsortRecs against referenceOrder, on lists of 0 to 4096 records
// both as index lays them out and shuffled.
func FuzzSortArcs(f *testing.F) {
	for _, n := range []uint16{0, 1, 2, 12, 13, 100, bucketMin - 1, bucketMin, 1000, 4096} {
		for mode := range uint8(4) {
			f.Add(int64(n)+int64(mode), n, mode)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		recs := laidOut(sortCosts(rng, int(n%4097), mode))
		want := referenceOrder(recs)
		shuffled := slices.Clone(recs)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		sc := &sortScratch{}
		for _, in := range [][]arcRec{recs, shuffled} {
			got := slices.Clone(in)
			sortRecs(got, sc)
			sameOrder(t, "sortRecs", got, want)
			got = slices.Clone(in)
			introsortRecs(got)
			sameOrder(t, "introsortRecs", got, want)
		}
	})
}

// TestIntrosortComparisonBound feeds introsortRecs the inputs that make a
// plain quicksort quadratic and checks that it stays within 3·n·log₂n
// comparisons; so does the heapsort fallback on its own.
func TestIntrosortComparisonBound(t *testing.T) {
	const n = 4096
	limit := 3 * n * (bits.Len(n) - 1)
	ramp := func(f func(i int) float64) []arcRec {
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = f(i)
		}
		return laidOut(costs)
	}
	patterns := map[string][]arcRec{
		"sorted":    ramp(func(i int) float64 { return float64(i) }),
		"reversed":  ramp(func(i int) float64 { return float64(n - i) }),
		"all-equal": ramp(func(int) float64 { return 0.5 }),
		"organ-pipe": ramp(func(i int) float64 {
			return float64(min(i, n-1-i))
		}),
	}
	// All-equal costs with ids ascending: reversed in recLess order.
	patterns["all-equal-ids-ascending"] = slices.Clone(patterns["all-equal"])
	slices.Reverse(patterns["all-equal-ids-ascending"])
	for name, recs := range patterns {
		want := referenceOrder(recs)
		got := slices.Clone(recs)
		if cmps := introsortRecs(got); cmps > limit {
			t.Errorf("%s: %d comparisons, limit %d", name, cmps, limit)
		}
		sameOrder(t, name, got, want)

		got = slices.Clone(recs)
		if cmps := heapsortRecs(got); cmps > limit {
			t.Errorf("%s heapsort: %d comparisons, limit %d", name, cmps, limit)
		}
		sameOrder(t, name+" heapsort", got, want)
	}
}

// TestIntrosortDepthGuard checks that a range left after the depth limit
// is finished by heapsort: with no partition allowed, introsort's count
// is exactly heapsortRecs'.
func TestIntrosortDepthGuard(t *testing.T) {
	recs := laidOut(sortCosts(rand.New(rand.NewSource(3)), 500, 1))
	a, b := slices.Clone(recs), slices.Clone(recs)
	if ci, ch := introsort(a, 0), heapsortRecs(b); ci != ch {
		t.Fatalf("depth 0 introsort made %d comparisons, heapsort %d", ci, ch)
	}
	sameOrder(t, "depth 0", a, referenceOrder(recs))
}
