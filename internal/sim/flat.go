package sim

import "fmt"

// Flat is an immutable row-major store of n d-dimensional vectors with the
// squared Euclidean norm of every row precomputed at build time. One
// contiguous allocation replaces n pointer-chased slices, so linear scans —
// the inner loop of every similarity row and cost-matrix build — walk
// memory in stride order and the hardware prefetcher keeps up. The norms
// feed the cosine kernel (its per-row ‖b‖² term).
type Flat struct {
	data  []float64 // n*d coordinates, row i at [i*d, (i+1)*d)
	norms []float64 // norms[i] = Σ_j data[i*d+j]², accumulated in index order
	d, n  int
}

// NewFlat copies vs into a flat row-major store. All vectors must share one
// dimensionality; an empty input yields an empty store.
func NewFlat(vs []Vector) *Flat {
	f := &Flat{n: len(vs)}
	if f.n == 0 {
		return f
	}
	f.d = len(vs[0])
	f.data = make([]float64, f.n*f.d)
	f.norms = make([]float64, f.n)
	for i, v := range vs {
		if len(v) != f.d {
			panic(fmt.Sprintf("sim: flat row %d has dimension %d, want %d", i, len(v), f.d))
		}
		copy(f.data[i*f.d:], v)
		// Accumulate in index order: this must produce the same float64 as
		// the nb accumulator inside the Cosine closure, which sums b[i]*b[i]
		// left to right.
		var s float64
		for _, x := range v {
			s += x * x
		}
		f.norms[i] = s
	}
	return f
}

// Len returns the number of stored vectors.
func (f *Flat) Len() int { return f.n }

// Row returns a view of row i. The view aliases the store; callers must not
// modify it.
func (f *Flat) Row(i int) Vector {
	base := i * f.d
	return Vector(f.data[base : base+f.d : base+f.d])
}

// Norm returns the precomputed squared Euclidean norm of row i.
func (f *Flat) Norm(i int) float64 { return f.norms[i] }
