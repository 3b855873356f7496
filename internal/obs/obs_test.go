package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	new(Counter).Add(-1)
}

func TestGauge(t *testing.T) {
	g := NewRegistry().Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewRegistry().Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 5 {
		t.Fatalf("count = %d, want 5", snap.Count)
	}
	if got := snap.Sum; math.Abs(got-106) > 1e-9 {
		t.Fatalf("sum = %v, want 106", got)
	}
	// Cumulative: <=1 holds {0.5, 1}, <=2 adds {1.5}, <=4 adds {3};
	// 100 overflows every bound.
	want := []int64{2, 3, 4}
	for i, b := range snap.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket le=%v count = %d, want %d", b.LE, b.Count, want[i])
		}
	}
	if overflow := snap.Count - snap.Buckets[len(snap.Buckets)-1].Count; overflow != 1 {
		t.Fatalf("overflow = %d, want 1", overflow)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewRegistry().Histogram("h", DefaultLatencyBuckets)
	const workers, per = 16, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w%4) * 0.001)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	// 16 workers: 4 observe each of 0, 0.001, 0.002, 0.003.
	wantSum := float64(4*per) * (0 + 0.001 + 0.002 + 0.003)
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {1, 1}, {2, 1}, {math.Inf(1)}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v did not panic", bounds)
				}
			}()
			NewRegistry().Histogram("h", bounds)
		}()
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("x") != reg.Counter("x") {
		t.Fatal("same name returned distinct counters")
	}
	if reg.Gauge("x") != reg.Gauge("x") {
		t.Fatal("same name returned distinct gauges")
	}
	h := reg.Histogram("x", []float64{1})
	if reg.Histogram("x", []float64{9, 10}) != h {
		t.Fatal("second registration replaced the histogram")
	}
}

func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				reg.Counter("shared").Inc()
				reg.Histogram("lat", DefaultLatencyBuckets).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != 16000 {
		t.Fatalf("counter = %d, want 16000", got)
	}
	if got := reg.Histogram("lat", DefaultLatencyBuckets).Snapshot().Count; got != 16000 {
		t.Fatalf("histogram count = %d, want 16000", got)
	}
}

func TestLabel(t *testing.T) {
	if got := Label("m"); got != "m" {
		t.Fatalf("Label(m) = %q", got)
	}
	if got := Label("m", "a", "x", "b", "y"); got != "m{a=x,b=y}" {
		t.Fatalf("Label = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list did not panic")
		}
	}()
	Label("m", "a")
}

func TestDefaultRegistryIsShared(t *testing.T) {
	Default().Counter("obs_test_shared").Inc()
	if Default().Counter("obs_test_shared").Value() < 1 {
		t.Fatal("default registry did not retain the counter")
	}
}
