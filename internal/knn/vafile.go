package knn

import (
	"math"
	"sort"

	"github.com/ebsnlab/geacc/internal/sim"
)

// VAFile is a vector-approximation file (Weber et al., VLDB'98 — the second
// index the paper cites for Greedy-GEACC's NN queries). Every vector is
// quantized to a few bits per dimension; a query first scans the compact
// approximations, using per-cell lower bounds on the true distance to skip
// reading most exact vectors.
//
// This in-memory reproduction keeps the two-phase structure: phase one scans
// the approximation array (cache-friendly, bitsPerDim·d bits per item) and
// computes each item's lower-bound distance; phase two verifies candidates
// in lower-bound order in batches — squared distances come from the kernel's
// dot-product identity over the flat store — maintaining the exact-distance
// result heap. The stream is exact: an item is yielded only once no
// unverified candidate's lower bound precedes it.
type VAFile struct {
	kernel *sim.Kernel

	bitsPerDim uint
	cells      int       // 1 << bitsPerDim
	bounds     []float64 // cells+1 partition boundaries, shared by all dims
	approx     []uint8   // len(data)*dims cell indices (one byte each)
	dims       int
}

// vaVerifyBlock is how many candidates one verification step resolves in a
// single batched distance gather. Verifying a few candidates beyond the
// strictly necessary one is harmless — yields are still gated on exact
// distances against the remaining lower bounds — and the batching repays
// the extra work many times over.
const vaVerifyBlock = 64

// NewVAFileKernel builds a VA-File over an existing kernel, sharing its flat
// store instead of rebuilding one, with 2^bitsPerDim quantization cells per
// dimension (bitsPerDim is clamped to [1, 8]). The kernel's similarity must
// strictly decrease with Euclidean distance.
func NewVAFileKernel(k *sim.Kernel, bitsPerDim uint) *VAFile {
	if bitsPerDim < 1 {
		bitsPerDim = 1
	}
	if bitsPerDim > 8 {
		bitsPerDim = 8
	}
	va := &VAFile{kernel: k, bitsPerDim: bitsPerDim, cells: 1 << bitsPerDim}
	n := k.Len()
	if n == 0 {
		return va
	}
	va.dims = k.Dim()
	// Equi-width partition over the observed range (the classic VA-File
	// uses equi-populated slices per dimension; equi-width over the global
	// range keeps one boundary array and is just as valid an approximation
	// — bounds only need to be conservative).
	lo, hi := math.Inf(1), math.Inf(-1)
	for id := 0; id < n; id++ {
		for _, x := range k.Row(id) {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	va.bounds = make([]float64, va.cells+1)
	for i := range va.bounds {
		va.bounds[i] = lo + (hi-lo)*float64(i)/float64(va.cells)
	}
	va.approx = make([]uint8, n*va.dims)
	for id := 0; id < n; id++ {
		for dim, x := range k.Row(id) {
			va.approx[id*va.dims+dim] = uint8(va.cell(x))
		}
	}
	return va
}

// cell returns the quantization cell of coordinate x.
func (va *VAFile) cell(x float64) int {
	// bounds[c] <= x < bounds[c+1]; clamp edges.
	c := sort.SearchFloat64s(va.bounds, x) - 1
	if c < 0 {
		c = 0
	}
	if c >= va.cells {
		c = va.cells - 1
	}
	return c
}

// Len returns the number of indexed items.
func (va *VAFile) Len() int { return va.kernel.Len() }

// Stream returns an exact neighbor cursor backed by the approximation scan.
func (va *VAFile) Stream(query sim.Vector) Stream {
	s := &vaStream{va: va, query: query}
	n := va.kernel.Len()
	if n == 0 {
		return s
	}
	// Phase one: lower-bound distance for every item from its approximation.
	// For each dimension, the squared distance from the query coordinate to
	// the item's cell is at least the distance to the cell's nearest edge.
	qCell := make([]int, va.dims)
	for dim, x := range query {
		qCell[dim] = va.cell(x)
	}
	s.cands = make([]Pair, n)
	for id := 0; id < n; id++ {
		var lb float64
		base := id * va.dims
		for dim := 0; dim < va.dims; dim++ {
			c := int(va.approx[base+dim])
			if c == qCell[dim] {
				continue // query may be inside the cell: bound 0
			}
			var d float64
			if c > qCell[dim] {
				d = va.bounds[c] - query[dim]
			} else {
				d = query[dim] - va.bounds[c+1]
			}
			if d > 0 {
				lb += d * d
			}
		}
		s.cands[id] = Pair{ID: id, S: lb} // S holds the squared lower bound
	}
	sort.Slice(s.cands, func(i, j int) bool {
		if s.cands[i].S != s.cands[j].S {
			return s.cands[i].S < s.cands[j].S
		}
		return s.cands[i].ID < s.cands[j].ID
	})
	return s
}

type vaStream struct {
	va    *VAFile
	query sim.Vector

	cands []Pair // unverified items in ascending lower-bound order
	next  int    // cursor into cands

	// verified is a min-heap of exact candidates on (sqDist, id).
	verified []vaCand

	// Reusable batched-verification buffers, vaVerifyBlock long.
	idBuf []int
	sqBuf []float64
}

type vaCand struct {
	sqDist float64
	id     int
}

func (s *vaStream) Next() (int, float64, bool) {
	for {
		// Verify items while an unverified lower bound could still precede
		// the best verified candidate.
		for s.next < len(s.cands) &&
			(len(s.verified) == 0 || s.cands[s.next].S <= s.verified[0].sqDist) {
			s.verifyBlock()
		}
		if len(s.verified) == 0 {
			return 0, 0, false
		}
		best := s.pop()
		sv := s.va.kernel.Sim(s.query, best.id)
		if sv <= 0 {
			// Exact distance order: everything later is also non-positive.
			s.verified = nil
			s.next = len(s.cands)
			return 0, 0, false
		}
		return best.id, sv, true
	}
}

// verifyBlock resolves the next block of candidates with one batched
// squared-distance gather over the flat store.
func (s *vaStream) verifyBlock() {
	m := len(s.cands) - s.next
	if m > vaVerifyBlock {
		m = vaVerifyBlock
	}
	if s.idBuf == nil {
		s.idBuf = make([]int, vaVerifyBlock)
		s.sqBuf = make([]float64, vaVerifyBlock)
	}
	ids := s.idBuf[:m]
	for j, c := range s.cands[s.next : s.next+m] {
		ids[j] = c.ID
	}
	s.va.kernel.SqDistGather(s.query, ids, s.sqBuf[:m])
	for j, id := range ids {
		s.push(vaCand{sqDist: s.sqBuf[j], id: id})
	}
	s.next += m
}

func (s *vaStream) less(a, b vaCand) bool {
	if a.sqDist != b.sqDist {
		return a.sqDist < b.sqDist
	}
	return a.id < b.id
}

func (s *vaStream) push(c vaCand) {
	s.verified = append(s.verified, c)
	i := len(s.verified) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(s.verified[i], s.verified[p]) {
			break
		}
		s.verified[i], s.verified[p] = s.verified[p], s.verified[i]
		i = p
	}
}

func (s *vaStream) pop() vaCand {
	top := s.verified[0]
	last := len(s.verified) - 1
	s.verified[0] = s.verified[last]
	s.verified = s.verified[:last]
	i, n := 0, len(s.verified)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && s.less(s.verified[l], s.verified[m]) {
			m = l
		}
		if r < n && s.less(s.verified[r], s.verified[m]) {
			m = r
		}
		if m == i {
			break
		}
		s.verified[i], s.verified[m] = s.verified[m], s.verified[i]
		i = m
	}
	return top
}
