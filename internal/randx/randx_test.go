package randx

import (
	"math"
	"testing"
)

func TestSourceDeterministic(t *testing.T) {
	a, b := Source(42), Source(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestSubIndependentButReproducible(t *testing.T) {
	p1, p2 := Source(7), Source(7)
	c1, c2 := Sub(p1), Sub(p2)
	for i := 0; i < 50; i++ {
		if c1.Int63() != c2.Int63() {
			t.Fatal("derived streams diverged for identical parents")
		}
	}
}

func TestUniformRange(t *testing.T) {
	rng := Source(1)
	for i := 0; i < 10000; i++ {
		x := Uniform(rng, -3, 7)
		if x < -3 || x > 7 {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}

func TestUniformIntRangeAndCoverage(t *testing.T) {
	rng := Source(2)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		x := UniformInt(rng, 1, 4)
		if x < 1 || x > 4 {
			t.Fatalf("UniformInt out of range: %d", x)
		}
		seen[x] = true
	}
	for v := 1; v <= 4; v++ {
		if !seen[v] {
			t.Errorf("value %d never sampled", v)
		}
	}
}

func TestUniformIntSingleton(t *testing.T) {
	rng := Source(3)
	for i := 0; i < 10; i++ {
		if got := UniformInt(rng, 5, 5); got != 5 {
			t.Fatalf("UniformInt(5,5) = %d", got)
		}
	}
}

func TestNormalTruncation(t *testing.T) {
	rng := Source(4)
	for i := 0; i < 10000; i++ {
		x := Normal(rng, 25, 12.5, 1, 50)
		if x < 1 || x > 50 {
			t.Fatalf("Normal out of range: %v", x)
		}
	}
}

func TestNormalMeanApproximate(t *testing.T) {
	rng := Source(5)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += Normal(rng, 25, 12.5, -1000, 1000)
	}
	mean := sum / n
	if math.Abs(mean-25) > 0.5 {
		t.Errorf("sample mean %v too far from 25", mean)
	}
}

func TestNormalPathologicalTerminates(t *testing.T) {
	rng := Source(6)
	// Mean far outside the window: must still terminate and stay in range.
	x := Normal(rng, 1e9, 1, 0, 1)
	if x < 0 || x > 1 {
		t.Fatalf("pathological Normal out of range: %v", x)
	}
}

func TestNormalIntBounds(t *testing.T) {
	rng := Source(7)
	for i := 0; i < 5000; i++ {
		n := NormalInt(rng, 2, 1, 1, 8)
		if n < 1 || n > 8 {
			t.Fatalf("NormalInt out of range: %d", n)
		}
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	rng := Source(8)
	z := NewZipf(rng, 1.3, 1000, 10000)
	lowHalf := 0
	const n = 20000
	for i := 0; i < n; i++ {
		x := z.Next()
		if x < 0 || x > 10000 {
			t.Fatalf("Zipf out of range: %v", x)
		}
		if x < 5000 {
			lowHalf++
		}
	}
	// Zipf mass concentrates near rank 0, so the low half of the range must
	// dominate heavily.
	if float64(lowHalf)/n < 0.9 {
		t.Errorf("Zipf not skewed: only %d/%d in low half", lowHalf, n)
	}
}

func TestZipfPanicsOnBadParams(t *testing.T) {
	rng := Source(9)
	assertPanics(t, func() { NewZipf(rng, 1.0, 10, 1) })
	assertPanics(t, func() { NewZipf(rng, 1.3, 1, 1) })
	assertPanics(t, func() { NewZipf(rng, 1.3, 10, 0) })
	assertPanics(t, func() { Uniform(rng, 2, 1) })
	assertPanics(t, func() { UniformInt(rng, 2, 1) })
	assertPanics(t, func() { Normal(rng, 0, 1, 2, 1) })
}

func TestSamplePairsDistinctAndValid(t *testing.T) {
	rng := Source(11)
	for _, k := range []int{0, 1, 10, 45} { // 45 = all pairs of n=10
		pairs := SamplePairs(rng, 10, k)
		if len(pairs) != k {
			t.Fatalf("asked %d pairs, got %d", k, len(pairs))
		}
		seen := make(map[[2]int]bool)
		for _, p := range pairs {
			if p[0] >= p[1] || p[0] < 0 || p[1] >= 10 {
				t.Fatalf("invalid pair %v", p)
			}
			if seen[p] {
				t.Fatalf("duplicate pair %v", p)
			}
			seen[p] = true
		}
	}
}

func TestSamplePairsDensePath(t *testing.T) {
	rng := Source(12)
	// k*3 >= total forces the enumerate-and-shuffle path.
	pairs := SamplePairs(rng, 6, 14) // total = 15
	if len(pairs) != 14 {
		t.Fatalf("got %d pairs", len(pairs))
	}
}

func TestSamplePairsPanicsOnOverflow(t *testing.T) {
	rng := Source(13)
	assertPanics(t, func() { SamplePairs(rng, 4, 7) }) // only 6 pairs exist
	assertPanics(t, func() { SamplePairs(rng, 4, -1) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
