package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultLatencyBuckets are the histogram bounds used for every latency
// metric in the repo: roughly logarithmic from 100µs to 60s, matching the
// spread between a greedy solve on a small instance and an exact search or
// large min-cost flow.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5,
	10, 30, 60,
}

// DefaultSizeBuckets are the histogram bounds for count-valued
// observations (decomposition component sizes, batch widths): roughly
// logarithmic from single nodes to the million-user instances the roadmap
// targets.
var DefaultSizeBuckets = []float64{
	1, 2, 5,
	10, 25, 50,
	100, 250, 500,
	1000, 2500, 5000,
	10000, 25000, 50000,
	100000, 250000, 1000000,
}

// Counter is a monotonically increasing metric. The zero value is ready to
// use; counters obtained from a Registry are shared by name.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must be non-negative (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("obs: negative counter increment %d", n))
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous int64 value that can move in both directions.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative n decreases it).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an instantaneous float64 value. Unlike Gauge it can hold
// fractional quantities (ratios, gaps); the Prometheus renderer skips
// NaN/Inf values, so callers may Set whatever a computation produced.
type FloatGauge struct {
	v atomic.Uint64 // float64 bits
}

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// Histogram buckets float64 observations under fixed upper bounds. An
// observation v lands in the first bucket whose bound satisfies v <= bound;
// values above every bound are counted only in the total. Construct through
// Registry.Histogram.
type Histogram struct {
	bounds  []float64      // sorted, strictly increasing upper bounds
	buckets []atomic.Int64 // len(bounds)+1; last = overflow
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, updated by CAS
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	b := append([]float64(nil), bounds...)
	for i := range b {
		if math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
			panic(fmt.Sprintf("obs: non-finite bucket bound %v", b[i]))
		}
		if i > 0 && b[i] <= b[i-1] {
			panic(fmt.Sprintf("obs: bucket bounds not strictly increasing at %v", b[i]))
		}
	}
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bucket is one cumulative histogram bucket: the number of observations
// less than or equal to the upper bound LE.
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is a JSON-friendly point-in-time view of a Histogram.
// Buckets are cumulative over the finite bounds; observations above the
// last bound appear in Count but in no bucket (Count - Buckets[last].Count
// is the overflow).
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot returns the current cumulative view. Concurrent Observe calls
// may land between the per-bucket reads; each read is individually atomic.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{Buckets: make([]Bucket, len(h.bounds))}
	var cum int64
	for i, le := range h.bounds {
		cum += h.buckets[i].Load()
		snap.Buckets[i] = Bucket{LE: le, Count: cum}
	}
	snap.Count = h.count.Load()
	snap.Sum = h.Sum()
	return snap
}

// Registry is a named collection of instruments. Each kind lives in its own
// namespace: a counter and a gauge may share a name, though the repo's
// conventions (see docs/OBSERVABILITY.md) keep names globally unique.
type Registry struct {
	mu          sync.RWMutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	floatGauges map[string]*FloatGauge
	histograms  map[string]*Histogram
}

// NewRegistry returns an empty registry. Most callers want Default instead.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		floatGauges: make(map[string]*FloatGauge),
		histograms:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FloatGauge returns the named float gauge, creating it on first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	r.mu.RLock()
	g, ok := r.floatGauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.floatGauges[name]; !ok {
		g = &FloatGauge{}
		r.floatGauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use. Later calls return the existing histogram regardless of
// bounds — the first registration wins.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Counters returns a point-in-time copy of every counter value, keyed by
// the encoded series name. Diagnostics uses before/after copies to report
// how much solver work a single run performed.
func (r *Registry) Counters() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// DiffCounters returns after-before per series name, dropping zero deltas
// (and returning nil when nothing moved). Pair it with two Counters()
// calls to attribute work counts to one region of code.
func DiffCounters(before, after map[string]int64) map[string]int64 {
	deltas := make(map[string]int64)
	for name, v := range after {
		if d := v - before[name]; d != 0 {
			deltas[name] = d
		}
	}
	if len(deltas) == 0 {
		return nil
	}
	return deltas
}

// Label encodes label key/value pairs into a metric name,
// Prometheus-style: Label("m", "a", "x", "b", "y") -> `m{a=x,b=y}`. Pairs
// are kept in the given order; callers should always list labels in the
// same order so a series has exactly one name.
func Label(metric string, kv ...string) string {
	if len(kv) == 0 {
		return metric
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %v", kv))
	}
	var b strings.Builder
	b.WriteString(metric)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// std is the process-global registry.
var std = NewRegistry()

// Default returns the process-global registry every geacc package records
// into; geacc-server serves it as Prometheus text at GET /metrics.
func Default() *Registry { return std }
