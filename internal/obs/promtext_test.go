package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

func promLines(t *testing.T, r *Registry) []string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimRight(b.String(), "\n")
	if out == "" {
		return nil
	}
	return strings.Split(out, "\n")
}

func TestPrometheusCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total").Add(7)
	r.Counter(Label("solve_total", "algo", "greedy")).Add(2)
	r.Gauge("inflight").Set(3)
	r.FloatGauge(Label("gap", "algo", "greedy")).Set(0.125)

	got := strings.Join(promLines(t, r), "\n")
	for _, want := range []string{
		"# TYPE requests_total counter",
		"requests_total 7",
		"# TYPE solve_total counter",
		`solve_total{algo="greedy"} 2`,
		"# TYPE inflight gauge",
		"inflight 3",
		"# TYPE gap gauge",
		`gap{algo="greedy"} 0.125`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestPrometheusNameSanitization(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird-name.total").Inc()
	r.Counter("0leading").Inc()
	r.Counter(Label("m", "label-key", "v")).Inc()

	got := strings.Join(promLines(t, r), "\n")
	for _, want := range []string{
		"weird_name_total 1",
		"_leading 1",
		`m{label_key="v"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "weird-name") || strings.Contains(got, "label-key") {
		t.Errorf("unsanitized name survived:\n%s", got)
	}
}

func TestPrometheusLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("m", "path", `C:\dir`)).Inc()
	got := strings.Join(promLines(t, r), "\n")
	if !strings.Contains(got, `m{path="C:\\dir"} 1`) {
		t.Errorf("backslash not escaped:\n%s", got)
	}
}

func TestPrometheusNonFiniteFloatGaugesSkipped(t *testing.T) {
	r := NewRegistry()
	r.FloatGauge("bad_nan").Set(math.NaN())
	r.FloatGauge("bad_inf").Set(math.Inf(1))
	r.FloatGauge("good").Set(1.5)

	got := strings.Join(promLines(t, r), "\n")
	if strings.Contains(got, "bad_nan") || strings.Contains(got, "bad_inf") {
		t.Errorf("non-finite gauge rendered:\n%s", got)
	}
	if !strings.Contains(got, "good 1.5") {
		t.Errorf("finite gauge missing:\n%s", got)
	}
}

func TestPrometheusHistogramExpansion(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Label("latency_seconds", "algo", "greedy"), []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99) // above every finite bound: only +Inf sees it

	got := promLines(t, r)
	joined := strings.Join(got, "\n")
	for _, want := range []string{
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{algo="greedy",le="0.1"} 1`,
		`latency_seconds_bucket{algo="greedy",le="1"} 2`,
		`latency_seconds_bucket{algo="greedy",le="+Inf"} 3`,
		`latency_seconds_sum{algo="greedy"} 99.55`,
		`latency_seconds_count{algo="greedy"} 3`,
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("output missing %q:\n%s", want, joined)
		}
	}

	// The +Inf bucket must equal _count even with overflow observations.
	var inf, count int64 = -1, -2
	for _, line := range got {
		if strings.HasPrefix(line, `latency_seconds_bucket{algo="greedy",le="+Inf"}`) {
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &inf)
		}
		if strings.HasPrefix(line, `latency_seconds_count{algo="greedy"}`) {
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &count)
		}
	}
	if inf != count {
		t.Errorf("+Inf bucket %d != count %d", inf, count)
	}
}

func TestPrometheusDeterministicOrdering(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Insert in scrambled order; map iteration would scramble further.
		r.Counter(Label("zzz_total", "algo", "b")).Inc()
		r.Counter(Label("zzz_total", "algo", "a")).Inc()
		r.Counter("aaa_total").Inc()
		r.Gauge("mmm").Set(1)
		r.Histogram("hhh", []float64{1}).Observe(0.5)
		return r
	}
	first := strings.Join(promLines(t, build()), "\n")
	for i := 0; i < 5; i++ {
		if again := strings.Join(promLines(t, build()), "\n"); again != first {
			t.Fatalf("output not deterministic:\n%s\n--- vs ---\n%s", first, again)
		}
	}
	// Families in sorted order, series sorted within a family.
	iA := strings.Index(first, "# TYPE aaa_total")
	iH := strings.Index(first, "# TYPE hhh")
	iM := strings.Index(first, "# TYPE mmm")
	iZ := strings.Index(first, "# TYPE zzz_total")
	if !(iA >= 0 && iA < iH && iH < iM && iM < iZ) {
		t.Errorf("families out of order:\n%s", first)
	}
	if a, b := strings.Index(first, `algo="a"`), strings.Index(first, `algo="b"`); a > b {
		t.Errorf("series out of order:\n%s", first)
	}
}

func TestPrometheusParseableValues(t *testing.T) {
	// Every sample line must end in a value strconv can parse back.
	r := NewRegistry()
	r.Counter(Label("geacc_solve_total", "algo", "greedy")).Add(3)
	r.FloatGauge("ratio").Set(0.625)
	r.Histogram("seconds", DefaultLatencyBuckets).Observe(0.2)
	for _, line := range promLines(t, r) {
		if strings.HasPrefix(line, "#") {
			continue
		}
		field := line[strings.LastIndexByte(line, ' ')+1:]
		if _, err := strconv.ParseFloat(field, 64); err != nil {
			t.Errorf("unparseable value %q in line %q", field, line)
		}
	}
}
