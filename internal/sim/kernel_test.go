package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func randVecs(rng *rand.Rand, n, d int, maxT float64) []Vector {
	vs := make([]Vector, n)
	for i := range vs {
		v := make(Vector, d)
		for j := range v {
			v[j] = rng.Float64() * maxT
		}
		vs[i] = v
	}
	return vs
}

// TestKernelMatchesClosures is the core equivalence property: for random
// vectors over a sweep of dimensionalities and attribute bounds, SimBatch
// and Sim agree with the closure-based built-ins within 1e-9 — and in fact
// bit for bit, which is the stronger contract the sweep's oracle tests
// rely on.
func TestKernelMatchesClosures(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range []int{1, 2, 3, 4, 5, 8, 20, 33} {
		for _, maxT := range []float64{1, 10, 10000} {
			funcs := map[string]Func{
				"euclidean": Euclidean(d, maxT),
				"cosine":    Cosine(),
				"manhattan": Manhattan(d, maxT),
			}
			data := randVecs(rng, 57, d, maxT)
			queries := randVecs(rng, 9, d, maxT)
			for name, f := range funcs {
				k := NewKernel(data, f)
				if !k.Batched() {
					t.Fatalf("d=%d maxT=%v %s: kernel did not recognize built-in", d, maxT, name)
				}
				out := make([]float64, len(data))
				for _, q := range queries {
					k.SimBatch(q, 0, len(data), out)
					for i, row := range data {
						want := f(q, row)
						if math.Abs(out[i]-want) > 1e-9 {
							t.Fatalf("d=%d maxT=%v %s row %d: batch %v, closure %v", d, maxT, name, i, out[i], want)
						}
						if out[i] != want {
							t.Errorf("d=%d maxT=%v %s row %d: batch %v not bit-identical to closure %v", d, maxT, name, i, out[i], want)
						}
						if got := k.Sim(q, i); got != want {
							t.Errorf("d=%d maxT=%v %s row %d: Sim %v != closure %v", d, maxT, name, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestKernelClampCorners drives the negative-clamp branch: opposite corners
// of [0, T]^d are at exactly the normalizing distance, where floating-point
// error can push 1 − dist/norm a hair negative. Closure and kernel must
// clamp identically.
func TestKernelClampCorners(t *testing.T) {
	for _, d := range []int{1, 2, 7, 20, 31} {
		for _, maxT := range []float64{1, 3, 10000} {
			zero := make(Vector, d)
			far := make(Vector, d)
			for j := range far {
				far[j] = maxT
			}
			almost := slices.Clone(far)
			almost[0] = maxT * (1 - 1e-12)
			data := []Vector{zero, far, almost}
			for name, f := range map[string]Func{
				"euclidean": Euclidean(d, maxT),
				"manhattan": Manhattan(d, maxT),
			} {
				k := NewKernel(data, f)
				out := make([]float64, len(data))
				for _, q := range data {
					k.SimBatch(q, 0, len(data), out)
					for i, row := range data {
						want := f(q, row)
						if out[i] != want {
							t.Fatalf("d=%d maxT=%v %s corner (%v,%v): batch %v, closure %v", d, maxT, name, q, row, out[i], want)
						}
						if want < 0 || want > 1 {
							t.Fatalf("d=%d maxT=%v %s: closure out of range: %v", d, maxT, name, want)
						}
					}
				}
			}
		}
	}
}

// TestKernelGenericFallback: an arbitrary user Func is not recognized, and
// the kernel's batch and single paths both reduce to calling it per pair.
func TestKernelGenericFallback(t *testing.T) {
	f := func(a, b Vector) float64 {
		var s float64
		for i := range a {
			s += a[i] * b[i] / (1 + a[i])
		}
		return s / float64(len(a)+1)
	}
	rng := rand.New(rand.NewSource(7))
	data := randVecs(rng, 23, 6, 5)
	k := NewKernel(data, f)
	if k.Batched() {
		t.Fatal("custom func unexpectedly recognized as built-in")
	}
	q := randVecs(rng, 1, 6, 5)[0]
	out := make([]float64, len(data))
	k.SimBatch(q, 0, len(data), out)
	for i, row := range data {
		if want := f(q, row); out[i] != want {
			t.Fatalf("fallback row %d: %v != %v", i, out[i], want)
		}
		if got := k.Sim(q, i); got != f(q, row) {
			t.Fatalf("fallback Sim row %d: %v != %v", i, got, f(q, row))
		}
	}
}

// TestKernelProbeRobustness: funcs that panic on the 1-dimensional probe
// (e.g. a closure hard-wired to d=5) must degrade to the generic fallback,
// not crash NewKernel.
func TestKernelProbeRobustness(t *testing.T) {
	f := func(a, b Vector) float64 {
		_ = a[4] // demands d >= 5; panics on the probe
		return SquaredDistance(a, b)
	}
	rng := rand.New(rand.NewSource(9))
	data := randVecs(rng, 4, 5, 1)
	k := NewKernel(data, f)
	if k.Batched() {
		t.Fatal("panicking func unexpectedly recognized")
	}
	out := make([]float64, len(data))
	k.SimBatch(data[0], 0, len(data), out)
	if out[0] != 0 {
		t.Fatalf("self-distance = %v, want 0", out[0])
	}
}

// TestFlatRowNorm: Row views alias the store faithfully and Norm matches a
// direct index-order accumulation.
func TestFlatRowNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := randVecs(rng, 11, 7, 3)
	f := NewFlat(data)
	if f.Len() != 11 {
		t.Fatalf("Len = %d", f.Len())
	}
	for i, v := range data {
		row := f.Row(i)
		if len(row) != 7 {
			t.Fatalf("row %d has %d components", i, len(row))
		}
		for j := range v {
			if row[j] != v[j] {
				t.Fatalf("row %d component %d: %v != %v", i, j, row[j], v[j])
			}
		}
		if f.Norm(i) != sumSquares(v) {
			t.Fatalf("row %d norm mismatch", i)
		}
	}
	empty := NewFlat(nil)
	if empty.Len() != 0 {
		t.Fatal("empty flat store not empty")
	}
}
