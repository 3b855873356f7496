package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON is BENCHMARK.json in full.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkJSONDeclaresWhatTheProgramEmits(t *testing.T) {
	bf := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q, program has %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program emits %d", len(bf.EndToEnd), len(endToEnd))
	}
	var setupBound, maxOther float64
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s/%s, program emits %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program emits %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s/%s, program emits %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q unit %q: invalid or repeated", d.name, d.unit)
		}
		seen[d.name] = true
	}
}

// TestSmokeAllWorkloads runs every workload end to end against a real
// server with tiny request counts and tracing on: every check must pass and
// every metric BENCHMARK.json names must be emitted, end-to-end ones
// non-zero.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers; skipped under -short")
	}
	bf := readBenchmarkJSON(t)
	ctx := context.Background()
	dir := t.TempDir()
	bin, err := buildServer(ctx, "..", dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		n := 4
		if w.solve == nil {
			n = 200
		}
		cfg := config{seed: 1, seconds: 1, trace: true, buildDir: dir, serverBin: bin, perLane: n, log: io.Discard}
		start := time.Now()
		o, err := runWorkload(ctx, cfg, w)
		t.Logf("%s: %v", w.name, time.Since(start))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !o.correct || o.failed != 0 || o.attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d: %v", w.name, o.correct, o.failed, o.attempted, o.msgs)
		}
		for _, m := range bf.EndToEnd {
			if v, ok := o.e2e[m.Name]; !ok || !(v.v > 0) {
				t.Errorf("%s: end-to-end %s = %v (emitted %v), want > 0", w.name, m.Name, v.v, ok)
			}
		}
		for _, m := range bf.PerLayer {
			if _, ok := o.layers[m.Name]; !ok {
				t.Errorf("%s: per-layer %s not emitted", w.name, m.Name)
			}
		}
	}
}
