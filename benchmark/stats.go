package main

import (
	"math"
	"sort"
	"time"
)

// tailPerMille picks the tail percentile a sample of n supports: the
// highest of p99.9, p99, p95 and p90 with at least ten samples beyond it,
// or the median when n < 100.
func tailPerMille(n int) int {
	for _, q := range []int{999, 990, 950, 900} {
		if n*(1000-q)/1000 >= 10 {
			return q
		}
	}
	return 500
}

// quantile returns the nearest-rank q-quantile of sorted xs (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// latencyMS converts durations to sorted milliseconds.
func latencyMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method), so
// spreads computed here match the ones an outside check computes.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var out [3]float64
	switch len(d) {
	case 0:
		return out
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	const n = 4
	m := len(d) + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out
}

// midRatio is Σnum/Σden over the middle half of the windows ranked by
// num/den: an interquartile mean, so a burst of host contention covering
// less than a quarter of the windows does not move it, while summing over
// many windows keeps the CPU clock's 10 ms ticks from quantizing it.
func midRatio(num, den []float64) float64 {
	idx := make([]int, len(num))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return num[idx[a]]*den[idx[b]] < num[idx[b]]*den[idx[a]] })
	lo, hi := len(idx)/4, len(idx)-len(idx)/4
	var n, d float64
	for _, i := range idx[lo:hi] {
		n += num[i]
		d += den[i]
	}
	return ratio(n, d)
}
