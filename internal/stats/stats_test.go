package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestStreamBasics(t *testing.T) {
	var s Stream
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	// Population stddev of this classic sample is 2; unbiased variance is
	// 32/7.
	if math.Abs(s.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %v", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestStreamSingleValue(t *testing.T) {
	var s Stream
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Variance() != 0 || s.StdDev() != 0 {
		t.Fatal("single-value stats wrong")
	}
	if s.Min() != 3.5 || s.Max() != 3.5 {
		t.Fatal("single-value min/max wrong")
	}
}

func TestStreamMatchesNaiveProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		var s Stream
		var sum float64
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			s.Add(xs[i])
			sum += xs[i]
		}
		mean := sum / float64(n)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(n-1)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Variance()-naiveVar) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct {
		p, want float64
	}{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {75, 32.5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile")
	}
	if Percentile([]float64{7}, 95) != 7 {
		t.Error("single-element percentile")
	}
	// Input must not be mutated.
	unsorted := []float64{3, 1, 2}
	Percentile(unsorted, 50)
	if unsorted[0] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentilePanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{-1, 101} {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("P%v did not panic", p)
				}
			}()
			Percentile([]float64{1}, p)
		}()
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("summary = %+v", s)
	}
	text := s.String()
	for _, want := range []string{"n=5", "mean=3", "p50=3"} {
		if !strings.Contains(text, want) {
			t.Errorf("String() missing %q: %s", want, text)
		}
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Error("empty summary wrong")
	}
}

func TestStreamLargeValuesStable(t *testing.T) {
	// Welford must survive a large offset that would destroy the naive
	// sum-of-squares formula in float64.
	var s Stream
	const offset = 1e9
	for _, x := range []float64{offset + 4, offset + 7, offset + 13, offset + 16} {
		s.Add(x)
	}
	if math.Abs(s.Mean()-(offset+10)) > 1e-3 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if math.Abs(s.Variance()-30) > 1e-3 {
		t.Fatalf("Variance = %v, want 30", s.Variance())
	}
}
