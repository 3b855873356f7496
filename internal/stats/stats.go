// Package stats provides the small statistical toolkit the experiment
// harness uses for repeated measurements: streaming mean/variance
// (Welford's algorithm), order statistics, and geometric means for ratio
// metrics like approximation quality.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Stream accumulates a sample one value at a time with numerically stable
// mean and variance (Welford). The zero value is ready to use.
type Stream struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Stream) N() int { return s.n }

// Mean returns the sample mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation (0 for an empty stream).
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty stream).
func (s *Stream) Max() float64 { return s.max }

// Summary is a five-number-style digest of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P50    float64
	P95    float64
	Max    float64
}

// Summarize digests a sample. It copies the input before sorting.
func Summarize(xs []float64) Summary {
	var st Stream
	for _, x := range xs {
		st.Add(x)
	}
	return Summary{
		N:      st.N(),
		Mean:   st.Mean(),
		StdDev: st.StdDev(),
		Min:    st.Min(),
		P50:    Percentile(xs, 50),
		P95:    Percentile(xs, 95),
		Max:    st.Max(),
	}
}

// String formats the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g±%.2g [min=%.4g p50=%.4g p95=%.4g max=%.4g]",
		s.N, s.Mean, s.StdDev, s.Min, s.P50, s.P95, s.Max)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of the sample using
// linear interpolation between closest ranks. It returns 0 for an empty
// sample and panics on an out-of-range p.
func Percentile(xs []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v outside [0, 100]", p))
	}
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
