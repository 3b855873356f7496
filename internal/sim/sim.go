// Package sim provides attribute vectors and similarity functions for the
// GEACC problem.
//
// Events and users are described by d-dimensional attribute vectors whose
// components lie in [0, T]. A similarity function maps a pair of vectors to
// an interestingness value in [0, 1]. The paper (Definition 4 and Equation 1)
// uses a normalized Euclidean similarity; it also notes that other similarity
// functions are applicable, so this package ships several and lets callers
// plug in their own.
package sim

import (
	"fmt"
	"math"
)

// Vector is a d-dimensional attribute vector. Components are expected to lie
// in [0, T] for the T the enclosing instance was built with, but Vector
// itself does not enforce that; CheckVectors refuses the vectors a
// similarity function cannot score.
type Vector []float64

// maxCosineSqNorm bounds a cosine vector's squared norm: with both factors
// below √MaxFloat64, the product of squared norms Cosine takes the square
// root of stays finite.
var maxCosineSqNorm = math.Sqrt(math.MaxFloat64)

// CheckVectors returns the index of the first vector in vs that f cannot
// score, with the reason, or -1 and nil. Only Cosine refuses vectors: one
// whose squared norm Σx² is not below √math.MaxFloat64 (NaN and infinite
// components included) overflows the norm product, so its similarities
// would come out NaN or silently wrong. Other functions accept any vector.
func CheckVectors(f Func, vs []Vector) (int, error) {
	if specOf(f).kind != kindCosine {
		return -1, nil
	}
	for i, v := range vs {
		if sq := sumSquares(v); !(sq < maxCosineSqNorm) {
			return i, fmt.Errorf("sim: cosine attributes with squared norm %v overflow (the bound is √MaxFloat64 ≈ %.4g)", sq, maxCosineSqNorm)
		}
	}
	return -1, nil
}

// SquaredDistance returns the squared Euclidean distance between a and b.
// It panics if the vectors have different dimensionality, which always
// indicates a programming error: all vectors of one instance share d.
func SquaredDistance(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("sim: dimension mismatch: %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Distance returns the Euclidean distance between a and b.
func Distance(a, b Vector) float64 {
	return math.Sqrt(SquaredDistance(a, b))
}

// Func is a similarity function between two attribute vectors. Implementations
// must be pure, return values in [0, 1], and be symmetric bit for bit:
// f(a, b) and f(b, a) must be the same float64. Greedy's default index
// scores each (event, user) pair once as f(event, user) and hands that
// value to both sides' neighbor streams, and core.Validate checks stored
// similarities against f(event, user). The built-ins qualify: |a−b| equals
// |b−a| exactly and products commute.
type Func func(a, b Vector) float64

// Euclidean returns the similarity function of Equation (1) in the paper:
//
//	sim(a, b) = 1 - ||a-b||₂ / sqrt(d·T²)
//
// where d is the dimensionality and T the maximum attribute value. The
// denominator is the largest possible distance between two vectors in
// [0, T]^d, so the result is always in [0, 1].
func Euclidean(d int, maxT float64) Func {
	if d <= 0 {
		panic(fmt.Sprintf("sim: non-positive dimensionality %d", d))
	}
	if maxT <= 0 {
		panic(fmt.Sprintf("sim: non-positive attribute bound %v", maxT))
	}
	norm := math.Sqrt(float64(d) * maxT * maxT)
	sp := &funcSpec{kind: kindEuclidean, norm: norm}
	return func(a, b Vector) float64 {
		if answerProbe(a, sp) {
			return 0
		}
		s := 1 - Distance(a, b)/norm
		// Guard against tiny negative values from floating-point error when
		// the two vectors are at opposite corners of the attribute space.
		if s < 0 {
			return 0
		}
		return s
	}
}

// Cosine returns cosine similarity clamped to [0, 1]. With non-negative
// attribute vectors (as in the tag-based Meetup data) the dot product is
// non-negative, so no information is lost by the clamp. Two zero vectors
// have similarity 0 by convention.
func Cosine() Func {
	sp := &funcSpec{kind: kindCosine}
	return func(a, b Vector) float64 {
		if answerProbe(a, sp) {
			return 0
		}
		if len(a) != len(b) {
			panic(fmt.Sprintf("sim: dimension mismatch: %d vs %d", len(a), len(b)))
		}
		var dot, na, nb float64
		for i := range a {
			dot += a[i] * b[i]
			na += a[i] * a[i]
			nb += b[i] * b[i]
		}
		if na == 0 || nb == 0 {
			return 0
		}
		s := dot / math.Sqrt(na*nb)
		switch {
		case s < 0:
			return 0
		case s > 1:
			return 1
		}
		return s
	}
}

// Manhattan returns a normalized L1 similarity, 1 - ||a-b||₁ / (d·T):
// a cheaper alternative with the same [0, 1] range as Euclidean.
func Manhattan(d int, maxT float64) Func {
	if d <= 0 {
		panic(fmt.Sprintf("sim: non-positive dimensionality %d", d))
	}
	if maxT <= 0 {
		panic(fmt.Sprintf("sim: non-positive attribute bound %v", maxT))
	}
	norm := float64(d) * maxT
	sp := &funcSpec{kind: kindManhattan, norm: norm}
	return func(a, b Vector) float64 {
		if answerProbe(a, sp) {
			return 0
		}
		if len(a) != len(b) {
			panic(fmt.Sprintf("sim: dimension mismatch: %d vs %d", len(a), len(b)))
		}
		var s float64
		for i := range a {
			s += math.Abs(a[i] - b[i])
		}
		r := 1 - s/norm
		if r < 0 {
			return 0
		}
		return r
	}
}
