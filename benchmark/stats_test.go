package main

import (
	"math"
	"testing"
)

func TestTailPercentileHasTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 500}, {99, 500}, {100, 900}, {199, 900}, {200, 950},
		{999, 950}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPerMille(c.n); got != c.want {
			t.Errorf("tailPerMille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// With the nearest-rank quantile, the chosen percentile leaves at
	// least ten samples strictly above it.
	for _, n := range []int{100, 200, 1000, 10000, 1234} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		q := quantile(xs, float64(tailPerMille(n))/1000)
		if beyond := n - 1 - int(q); beyond < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", n, float64(tailPerMille(n))/10, beyond)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100, 102, 98, 100, 101, 99}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 80, 120, 90, 110, 70, 130, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", "agree"},
		{"within", steady, shift(steady, 1.05), "lower", "agree"},
		{"slower", steady, shift(steady, 1.2), "lower", "worse"},
		{"faster", steady, shift(steady, 0.8), "lower", "better"},
		{"less throughput", steady, shift(steady, 0.8), "higher", "worse"},
		{"too noisy", steady, noisy, "lower", "unresolved"},
	} {
		if _, got := verdict(c.a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCountersFromPrometheusText(t *testing.T) {
	before := snapshot{series: parseProm([]byte(`# TYPE geacc_solve_cache_hits_total counter
geacc_solve_cache_hits_total 3
geacc_admission_shed_total{reason="queue_full"} 1
geacc_admission_queue_wait_seconds_bucket{le="0.001"} 10
geacc_admission_queue_wait_seconds_bucket{le="0.01"} 10
geacc_admission_queue_wait_seconds_bucket{le="+Inf"} 10
geacc_admission_queue_wait_seconds_count 10
`))}
	after := snapshot{series: parseProm([]byte(`geacc_solve_cache_hits_total 8
geacc_admission_shed_total{reason="queue_full"} 2
geacc_admission_shed_total{reason="timeout"} 4
geacc_admission_queue_wait_seconds_bucket{le="0.001"} 100
geacc_admission_queue_wait_seconds_bucket{le="0.01"} 109
geacc_admission_queue_wait_seconds_bucket{le="+Inf"} 110
geacc_admission_queue_wait_seconds_count 110
`))}
	if d := delta(before, after, "geacc_solve_cache_hits_total"); d != 5 {
		t.Errorf("hits delta %v, want 5", d)
	}
	if d := deltaSum(before, after, "geacc_admission_shed_total"); d != 5 {
		t.Errorf("shed delta %v, want 5", d)
	}
	// 100 observations: 90 under 1ms, 9 under 10ms, 1 beyond.
	if q := histQuantile(before, after, "geacc_admission_queue_wait_seconds", 0.9); q != 0.001 {
		t.Errorf("p90 %v, want 0.001", q)
	}
	if q := histQuantile(before, after, "geacc_admission_queue_wait_seconds", 0.99); q != 0.01 {
		t.Errorf("p99 %v, want 0.01", q)
	}
	if q := histQuantile(before, after, "geacc_admission_queue_wait_seconds", 0.999); q != 0.01 || math.IsInf(q, 0) {
		t.Errorf("p99.9 %v, want the largest finite bound 0.01", q)
	}
	if q := histQuantile(before, before, "geacc_admission_queue_wait_seconds", 0.99); q != 0 {
		t.Errorf("p99 of nothing %v, want 0", q)
	}
}

func TestMidRatioIgnoresTheOuterQuarters(t *testing.T) {
	num := []float64{10, 10, 10, 10, 10, 10, 10, 10}
	den := []float64{1, 1, 1, 1, 1, 1, 5, 0.1} // one stalled, one racing window
	if got := midRatio(num, den); got != 10 {
		t.Errorf("midRatio = %v, want 10", got)
	}
	if got := midRatio([]float64{3}, []float64{2}); got != 1.5 {
		t.Errorf("one window: %v, want 1.5", got)
	}
	if got := midRatio(nil, nil); got != 0 {
		t.Errorf("no windows: %v, want 0", got)
	}
}
