package knn

import "math/bits"

// insertionMax is the range length at or below which bestFirst finishes
// with an insertion sort instead of partitioning further.
const insertionMax = 12

// bestFirst reorders ps so that its first min(k, len(ps)) pairs are the
// best of ps in (sim desc, id asc) order, sorted, and returns that prefix.
// Ids must be distinct, so the order is strict and the result unique.
//
// It is a quickselect that sorts as it goes: a partition's left side
// (pairs before the pivot) is always wanted and recursed into, its right
// side only while the top k reaches past the pivot. When k is a small
// share of n, a first pass around a pivot sampled near rank 2k cuts the
// list to about 2k pairs. Random-looking input costs expected
// O(n + k log k). Partitions draw on a depth budget of 2·log₂ n; a range
// that exhausts it falls back to a bounded heap selection and heapsort,
// so the worst case is O(n log n).
func bestFirst(ps []Pair, k int) []Pair {
	k = min(k, len(ps))
	if k == 0 {
		return ps[:0]
	}
	budget := 2 * bits.Len(uint(len(ps)))
	if len(ps) >= sampleMin && k <= len(ps)/sampleRatio {
		// A few k out of many: one pass around a pivot sampled near rank
		// 2k leaves ~2k pairs in front, and the quickselect runs on those.
		w := partitionBefore(ps, samplePivot(ps, k))
		if w < k {
			// Unlucky sample: the w pairs in front are the w best.
			if w > 0 {
				partialSort(ps[:w], w, budget)
			}
			partialSort(ps[w:], k-w, budget)
			return ps[:k]
		}
		ps = ps[:w]
	}
	partialSort(ps, k, budget)
	return ps[:k]
}

// sampleMin and sampleRatio gate bestFirst's sampled first pass: at least
// sampleMin pairs, of which at most 1/sampleRatio are wanted. Its pivot is
// drawn from sampleSize evenly spaced pairs.
const (
	sampleMin   = 128
	sampleRatio = 8
	sampleSize  = 31
)

// samplePivot returns the pair whose rank in an evenly spaced sample of ps
// estimates rank 2k in ps.
func samplePivot(ps []Pair, k int) Pair {
	var sample [sampleSize]Pair
	for i := range sample {
		sample[i] = ps[i*len(ps)/sampleSize]
	}
	insertionSortPairs(sample[:])
	r := min(sampleSize-1, 2*k*(sampleSize+1)/len(ps))
	return sample[r]
}

// partitionBefore moves the pairs of ps that come before pivot to its
// front, keeping no particular order, and returns how many there are.
func partitionBefore(ps []Pair, pivot Pair) int {
	w := 0
	for i, p := range ps {
		if before(p, pivot) {
			ps[i], ps[w] = ps[w], p
			w++
		}
	}
	return w
}

// partialSort sorts the k best pairs of ps into ps[:k] (0 < k ≤ len(ps)),
// spending at most budget levels of partitioning before the heap fallback.
func partialSort(ps []Pair, k, budget int) {
	for len(ps) > insertionMax {
		if budget == 0 {
			heapSelect(ps, k)
			sortBestFirst(ps[:k])
			return
		}
		budget--
		p := partitionPairs(ps)
		if p >= k {
			// The top k all come before the pivot.
			ps = ps[:p]
			continue
		}
		// ps[:p] and the pivot are all in the top k: sort the left side,
		// then take the remaining k-p-1 from the right.
		if p > 0 {
			partialSort(ps[:p], p, budget)
		}
		ps, k = ps[p+1:], k-p-1
		if k == 0 {
			return
		}
	}
	insertionSortPairs(ps)
}

// before reports whether a comes strictly before b in (sim desc, id asc)
// order.
func before(a, b Pair) bool { return after(b.S, b.ID, a.S, a.ID) }

// partitionPairs partitions ps (len ≥ 3) around the median of its first,
// middle and last pairs and returns the pivot's final index p: ps[:p] come
// before the pivot, ps[p+1:] after it. The two outer samples act as
// sentinels for the inner scans.
func partitionPairs(ps []Pair) int {
	n, m := len(ps), len(ps)/2
	if before(ps[m], ps[0]) {
		ps[0], ps[m] = ps[m], ps[0]
	}
	if before(ps[n-1], ps[m]) {
		ps[m], ps[n-1] = ps[n-1], ps[m]
		if before(ps[m], ps[0]) {
			ps[0], ps[m] = ps[m], ps[0]
		}
	}
	pivot := ps[m]
	ps[m], ps[n-2] = ps[n-2], ps[m]
	i, j := 0, n-2
	for {
		for i++; before(ps[i], pivot); i++ {
		}
		for j--; before(pivot, ps[j]); j-- {
		}
		if i >= j {
			break
		}
		ps[i], ps[j] = ps[j], ps[i]
	}
	ps[i], ps[n-2] = ps[n-2], ps[i]
	return i
}

// insertionSortPairs sorts a short ps into (sim desc, id asc) order.
func insertionSortPairs(ps []Pair) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && before(ps[j], ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// heapSelect moves the k best pairs of ps into ps[:k], unordered, with a
// bounded heap whose root is the worst pair kept.
func heapSelect(ps []Pair, k int) {
	heapifyPairs(ps[:k])
	for i := k; i < len(ps); i++ {
		if before(ps[i], ps[0]) {
			ps[0], ps[i] = ps[i], ps[0]
			siftPairs(ps, 0, k)
		}
	}
}
