package sim

import (
	"fmt"
	"math"
	"sync"

	"github.com/ebsnlab/geacc/internal/obs"
)

// Batch-kernel observability: one batch is one SimBatch call, pairs counts the (query, row) evaluations it covered. The ratio
// pairs/batches is the effective block size reaching the kernels.
var (
	kernelBatches = obs.Default().Counter("geacc_sim_kernel_batches_total")
	kernelPairs   = obs.Default().Counter("geacc_sim_kernel_pairs_total")
)

// kernelKind identifies which built-in similarity a Func was created by, so
// the kernel can run its batched form instead of calling the closure per pair.
type kernelKind uint8

const (
	kindGeneric kernelKind = iota // unrecognized Func: per-row fallback
	kindEuclidean
	kindCosine
	kindManhattan
)

// funcSpec is what a built-in constructor's closure reports when probed:
// enough to rebuild the exact arithmetic of the closure in batch form.
type funcSpec struct {
	kind kernelKind
	norm float64 // Euclidean: √(d·T²); Manhattan: d·T; Cosine: unused
}

// kernelProbe is the sentinel vector used to interrogate a Func. The built-in
// closures check the backing-array identity of their first argument before
// doing any arithmetic; on a match they record their spec instead of
// computing a similarity. The vector is allocated once and never mutated, so
// the identity check in hot closures is two comparisons against immutable
// memory — no synchronization needed on that path. specOf serializes actual
// probes (which write probeGot) behind the mutex.
var (
	probeMu  sync.Mutex
	probeVec = make(Vector, 1)
	probeGot *funcSpec
)

// answerProbe reports whether a is the probe sentinel; if so it records sp
// as the answer. Built-in closures call this first.
func answerProbe(a Vector, sp *funcSpec) bool {
	if len(a) != 1 || &a[0] != &probeVec[0] {
		return false
	}
	probeGot = sp
	return true
}

// specOf interrogates f with the probe sentinel. Unrecognized functions
// either return a value (ignored) or panic on the 1-dimensional probe
// (recovered); both yield the generic spec.
func specOf(f Func) funcSpec {
	if f == nil {
		return funcSpec{}
	}
	probeMu.Lock()
	defer probeMu.Unlock()
	probeGot = nil
	func() {
		defer func() { _ = recover() }()
		f(probeVec, probeVec)
	}()
	if probeGot == nil {
		return funcSpec{}
	}
	return *probeGot
}

// Kernel evaluates one similarity function against a fixed set of vectors in
// batches. For the built-in Euclidean/Cosine/Manhattan functions it runs
// unrolled scans over the flat store that reproduce the closures'
// floating-point arithmetic bit for bit — batched and per-pair paths are
// interchangeable anywhere in the repo. Any other Func runs through the generic
// fallback, so plugging in a custom similarity keeps working unchanged.
type Kernel struct {
	flat *Flat
	f    Func
	spec funcSpec
}

// NewKernel builds a kernel over data for f. The vectors are copied into a
// flat row-major store; data itself is not retained.
func NewKernel(data []Vector, f Func) *Kernel {
	return &Kernel{flat: NewFlat(data), f: f, spec: specOf(f)}
}

// Len returns the number of stored vectors.
func (k *Kernel) Len() int { return k.flat.Len() }

// Batched reports whether the kernel recognized its Func as a built-in and
// will use the specialized batch scans (false means generic fallback).
func (k *Kernel) Batched() bool { return k.spec.kind != kindGeneric }

// SimBatch fills out[0:hi-lo] with sim(query, row i) for every i in
// [lo, hi). For recognized built-ins the results are bit-identical to
// calling the closure per pair.
func (k *Kernel) SimBatch(query Vector, lo, hi int, out []float64) {
	if hi <= lo {
		return
	}
	kernelBatches.Inc()
	kernelPairs.Add(int64(hi - lo))
	switch k.spec.kind {
	case kindEuclidean:
		k.euclideanBatch(query, lo, hi, out)
	case kindCosine:
		k.cosineBatch(query, lo, hi, out)
	case kindManhattan:
		k.manhattanBatch(query, lo, hi, out)
	default:
		for i := lo; i < hi; i++ {
			out[i-lo] = k.f(query, k.flat.Row(i))
		}
	}
}

// Sim returns sim(query, row i): the per-pair entry point with the same
// bit-level guarantees as SimBatch.
func (k *Kernel) Sim(query Vector, i int) float64 {
	switch k.spec.kind {
	case kindEuclidean:
		return euclideanRow(query, k.flat.Row(i), k.spec.norm)
	case kindCosine:
		return cosineRow(query, sumSquares(query), k.flat.Row(i), k.flat.Norm(i))
	case kindManhattan:
		return manhattanRow(query, k.flat.Row(i), k.spec.norm)
	default:
		return k.f(query, k.flat.Row(i))
	}
}

// euclideanBatch is the Euclidean(d, maxT) closure over a block: per row it
// runs the difference form with a single accumulator in index order — the
// same operation sequence as SquaredDistance — then 1 − √s/norm with the
// negative clamp. The 4-wide unroll issues independent subtract/multiply
// pairs but keeps one sequential accumulator, so the float64 result is
// bit-identical to the closure's.
func (k *Kernel) euclideanBatch(query Vector, lo, hi int, out []float64) {
	d := k.flat.d
	if len(query) != d {
		panic(fmt.Sprintf("sim: dimension mismatch: %d vs %d", len(query), d))
	}
	q := query[:d]
	norm := k.spec.norm
	data := k.flat.data
	for i := lo; i < hi; i++ {
		row := data[i*d : i*d+d]
		var s float64
		j := 0
		for ; j+4 <= d; j += 4 {
			d0 := q[j] - row[j]
			s += d0 * d0
			d1 := q[j+1] - row[j+1]
			s += d1 * d1
			d2 := q[j+2] - row[j+2]
			s += d2 * d2
			d3 := q[j+3] - row[j+3]
			s += d3 * d3
		}
		for ; j < d; j++ {
			dd := q[j] - row[j]
			s += dd * dd
		}
		sv := 1 - math.Sqrt(s)/norm
		if sv < 0 {
			sv = 0
		}
		out[i-lo] = sv
	}
}

// cosineBatch is the Cosine() closure over a block. The closure accumulates
// dot, na, nb in three independent variables over the same index loop;
// independence means precomputing na (the query norm) once and nb (the row
// norms) at build time yields the very same float64 values, and the final
// dot/√(na·nb) expression is reproduced verbatim.
func (k *Kernel) cosineBatch(query Vector, lo, hi int, out []float64) {
	d := k.flat.d
	if len(query) != d {
		panic(fmt.Sprintf("sim: dimension mismatch: %d vs %d", len(query), d))
	}
	q := query[:d]
	qn := sumSquares(q)
	data := k.flat.data
	norms := k.flat.norms
	for i := lo; i < hi; i++ {
		row := data[i*d : i*d+d]
		var dot float64
		j := 0
		for ; j+4 <= d; j += 4 {
			dot += q[j] * row[j]
			dot += q[j+1] * row[j+1]
			dot += q[j+2] * row[j+2]
			dot += q[j+3] * row[j+3]
		}
		for ; j < d; j++ {
			dot += q[j] * row[j]
		}
		rn := norms[i]
		if qn == 0 || rn == 0 {
			out[i-lo] = 0
			continue
		}
		s := dot / math.Sqrt(qn*rn)
		switch {
		case s < 0:
			s = 0
		case s > 1:
			s = 1
		}
		out[i-lo] = s
	}
}

// manhattanBatch is the Manhattan(d, maxT) closure over a block: sequential
// |q−r| accumulation, then 1 − s/norm with the negative clamp.
func (k *Kernel) manhattanBatch(query Vector, lo, hi int, out []float64) {
	d := k.flat.d
	if len(query) != d {
		panic(fmt.Sprintf("sim: dimension mismatch: %d vs %d", len(query), d))
	}
	q := query[:d]
	norm := k.spec.norm
	data := k.flat.data
	for i := lo; i < hi; i++ {
		row := data[i*d : i*d+d]
		var s float64
		j := 0
		for ; j+4 <= d; j += 4 {
			s += math.Abs(q[j] - row[j])
			s += math.Abs(q[j+1] - row[j+1])
			s += math.Abs(q[j+2] - row[j+2])
			s += math.Abs(q[j+3] - row[j+3])
		}
		for ; j < d; j++ {
			s += math.Abs(q[j] - row[j])
		}
		r := 1 - s/norm
		if r < 0 {
			r = 0
		}
		out[i-lo] = r
	}
}

// The per-row helpers below mirror the batch loops exactly (keep them in
// lockstep): Sim reuses them so single-pair and batched
// evaluation cannot drift apart.

func euclideanRow(q, row Vector, norm float64) float64 {
	sv := 1 - math.Sqrt(SquaredDistance(q, row))/norm
	if sv < 0 {
		return 0
	}
	return sv
}

func cosineRow(q Vector, qn float64, row Vector, rn float64) float64 {
	if len(q) != len(row) {
		panic(fmt.Sprintf("sim: dimension mismatch: %d vs %d", len(q), len(row)))
	}
	if qn == 0 || rn == 0 {
		return 0
	}
	var dot float64
	for i := range q {
		dot += q[i] * row[i]
	}
	s := dot / math.Sqrt(qn*rn)
	switch {
	case s < 0:
		return 0
	case s > 1:
		return 1
	}
	return s
}

func manhattanRow(q, row Vector, norm float64) float64 {
	if len(q) != len(row) {
		panic(fmt.Sprintf("sim: dimension mismatch: %d vs %d", len(q), len(row)))
	}
	var s float64
	for i := range q {
		s += math.Abs(q[i] - row[i])
	}
	r := 1 - s/norm
	if r < 0 {
		return 0
	}
	return r
}

// sumSquares accumulates Σ v[i]² in index order — the same order as the
// Cosine closure's na/nb accumulators and NewFlat's norm precompute.
func sumSquares(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}
