package mincostflow

import (
	"math"
	"math/bits"
)

// recLess orders adjacency records by cost ascending, then arc id
// descending. Arc ids are unique within a graph, so this is a strict total
// order: any correct sort of a node's list yields the same slots.
func recLess(a, b arcRec) bool {
	return a.cost < b.cost || (a.cost == b.cost && a.arc > b.arc)
}

// bucketMin is the list length from which sortRecs uses bucketSortRecs.
const bucketMin = 32

// sortScratch is the bucket sort's storage, kept by the Graph across
// sorts and solves.
type sortScratch struct {
	recs   []arcRec
	counts []int32
}

// sortRecs sorts one adjacency list into recLess order. Long lists take
// bucketSortRecs, which moves each record twice and compares it only with
// its few bucket mates; short ones take introsortRecs.
func sortRecs(s []arcRec, sc *sortScratch) {
	if len(s) >= bucketMin {
		bucketSortRecs(s, sc)
	} else {
		introsortRecs(s)
	}
}

// bucketSortRecs sorts s into recLess order. One counting pass
// distributes the records over len(s) equal-width cost ranges between
// s's least and greatest cost, and each bucket is then sorted on its own.
// The bucket index ⌊(c − lo)·(len(s)−1)/(hi − lo)⌋ is computed in
// floating point, where every step rounds monotonically, so it never
// decreases as c grows and equal costs (−0 and +0 included) share a
// bucket. Costs that crowd one bucket fall to introsortRecs there, as
// does a range too wide or too narrow to scale, which keeps the worst
// case O(n log n).
func bucketSortRecs(s []arcRec, sc *sortScratch) {
	n := len(s)
	lo, hi := s[0].cost, s[0].cost
	for _, r := range s[1:] {
		lo, hi = min(lo, r.cost), max(hi, r.cost)
	}
	scale := float64(n-1) / (hi - lo)
	if math.IsInf(scale, 0) || scale == 0 {
		introsortRecs(s)
		return
	}
	sc.recs = resize(sc.recs, n)
	sc.counts = resize(sc.counts, n+1)
	buf, counts := sc.recs, sc.counts
	clear(counts)
	for _, r := range s {
		counts[1+int((r.cost-lo)*scale)]++
	}
	for d := 1; d <= n; d++ {
		counts[d] += counts[d-1]
	}
	for _, r := range s {
		d := int((r.cost - lo) * scale)
		buf[counts[d]] = r
		counts[d]++
	}
	// counts[d] now ends bucket d, which starts where bucket d-1 ended.
	begin := int32(0)
	for _, end := range counts[:n] {
		if end-begin > 1 {
			introsortRecs(buf[begin:end])
		}
		begin = end
	}
	copy(s, buf)
}

// introsortRecs sorts s, in any starting order, by recLess: median-of-three
// quicksort, insertion sort on runs of at most 12 records, and heapsort
// for any range still unsorted after 2·⌊log₂ n⌋+2 partitions, so costs
// chosen by a caller cannot make it quadratic. It returns the number of
// comparisons it made, which the tests bound.
func introsortRecs(s []arcRec) int {
	return introsort(s, 2*bits.Len(uint(len(s))))
}

func introsort(s []arcRec, depth int) (cmps int) {
	for len(s) > 12 {
		if depth == 0 {
			return cmps + heapsortRecs(s)
		}
		depth--
		p, c := partitionRecs(s)
		cmps += c
		// Recurse into the shorter side and loop on the longer one, so
		// the stack stays O(log n) deep.
		if p < len(s)-1-p {
			cmps += introsort(s[:p], depth)
			s = s[p+1:]
		} else {
			cmps += introsort(s[p+1:], depth)
			s = s[:p]
		}
	}
	return cmps + insertionRecs(s)
}

// partitionRecs moves the median of s's first, middle and last records to
// s[0], partitions the rest around it and returns its final index p: every
// record before p sorts before it, none after p does.
func partitionRecs(s []arcRec) (p, cmps int) {
	n, m := len(s), len(s)/2
	cmps = 2
	if recLess(s[m], s[0]) {
		s[0], s[m] = s[m], s[0]
	}
	if recLess(s[n-1], s[m]) {
		s[m], s[n-1] = s[n-1], s[m]
		cmps++
		if recLess(s[m], s[0]) {
			s[0], s[m] = s[m], s[0]
		}
	}
	s[0], s[m] = s[m], s[0]
	pivot := s[0]
	i, j := 1, n-1
	for {
		for ; i <= j; i++ {
			cmps++
			if !recLess(s[i], pivot) {
				break
			}
		}
		for ; i <= j; j-- {
			cmps++
			if recLess(s[j], pivot) {
				break
			}
		}
		if i > j {
			break
		}
		s[i], s[j] = s[j], s[i]
		i++
		j--
	}
	s[0], s[j] = s[j], s[0]
	return j, cmps
}

// insertionRecs sorts a short s by straight insertion.
func insertionRecs(s []arcRec) (cmps int) {
	for i := 1; i < len(s); i++ {
		x, j := s[i], i
		for ; j > 0; j-- {
			cmps++
			if !recLess(x, s[j-1]) {
				break
			}
			s[j] = s[j-1]
		}
		s[j] = x
	}
	return cmps
}

// heapsortRecs sorts s with a max-heap: the depth-limit fallback that
// keeps sortRecs O(n log n).
func heapsortRecs(s []arcRec) (cmps int) {
	for i := len(s)/2 - 1; i >= 0; i-- {
		cmps += siftDownRecs(s, i)
	}
	for end := len(s) - 1; end > 0; end-- {
		s[0], s[end] = s[end], s[0]
		cmps += siftDownRecs(s[:end], 0)
	}
	return cmps
}

func siftDownRecs(s []arcRec, i int) (cmps int) {
	n := len(s)
	x := s[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n {
			cmps++
			if recLess(s[c], s[c+1]) {
				c++
			}
		}
		cmps++
		if !recLess(x, s[c]) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = x
	return cmps
}
