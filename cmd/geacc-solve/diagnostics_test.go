package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/obs"
)

func TestSolveDiagOut(t *testing.T) {
	path := writeInstance(t)
	diagPath := filepath.Join(t.TempDir(), "diag.json")
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-algo", "mincostflow", "-diag-out", diagPath, "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	m, err := decodeMatching(&out)
	if err != nil {
		t.Fatalf("stdout is not a matching: %v", err)
	}

	raw, err := os.ReadFile(diagPath)
	if err != nil {
		t.Fatal(err)
	}
	var d core.Diagnostics
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("diagnostics is not JSON: %v\n%s", err, raw)
	}
	if d.Algo != "mincostflow" {
		t.Errorf("algo = %q", d.Algo)
	}
	if d.Events != 2 || d.Users != 3 {
		t.Errorf("shape = (%d, %d), want (2, 3)", d.Events, d.Users)
	}
	if d.MaxSum != m.MaxSum() {
		t.Errorf("diag MaxSum %v != printed %v", d.MaxSum, m.MaxSum())
	}
	if d.RelaxedUpperBound <= 0 {
		t.Errorf("relaxed upper bound = %v", d.RelaxedUpperBound)
	}
	wantGap := (d.RelaxedUpperBound - d.MaxSum) / d.RelaxedUpperBound
	if wantGap < 0 {
		wantGap = 0
	}
	if math.Abs(d.Gap-wantGap) > 1e-12 {
		t.Errorf("gap = %v, want %v", d.Gap, wantGap)
	}
	if len(d.Phases) == 0 {
		t.Error("no phase timings recorded")
	}
}

func TestSolveDiagPortfolioAndGreedy(t *testing.T) {
	path := writeInstance(t)
	for _, args := range [][]string{
		{"-in", path, "-algo", "portfolio"},
		{"-in", path, "-algo", "greedy"},
	} {
		diagPath := filepath.Join(t.TempDir(), "diag.json")
		var out bytes.Buffer
		if err := run(append(args, "-diag-out", diagPath, "-quiet"), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		raw, err := os.ReadFile(diagPath)
		if err != nil {
			t.Fatal(err)
		}
		var d core.Diagnostics
		if err := json.Unmarshal(raw, &d); err != nil {
			t.Fatalf("%v: diagnostics is not JSON: %v", args, err)
		}
		if d.Algo != args[3] {
			t.Errorf("%v: algo = %q", args, d.Algo)
		}
		if d.Gap < 0 || d.RelaxedUpperBound <= 0 {
			t.Errorf("%v: gap = %v, ub = %v", args, d.Gap, d.RelaxedUpperBound)
		}
	}
	// The index ablation lives in geacc-bench, and the pool size is
	// GOMAXPROCS: neither is a geacc-solve flag.
	for _, args := range [][]string{{"-index", "idistance"}, {"-decompose", "-decompose-workers", "2"}} {
		err := run(append([]string{"-in", path, "-quiet"}, args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err = %v", args, err)
		}
	}
}

// TestSolveDiagDecomposedBound: -decompose -diag sums per-component bounds
// instead of relaxing the whole instance; the runs counter moves once per
// component and the bound matches the monolithic one to 1e-9 relative.
func TestSolveDiagDecomposedBound(t *testing.T) {
	cfg := dataset.ClusteredConfig{
		NumEvents: 12, NumUsers: 48, Communities: 4, BlockDim: 2,
		EventCapMax: 5, UserCapMax: 2, CFRatio: 0.25, Seed: 5,
	}
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "clustered.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := encoding.EncodeInstance(f, in, encoding.SimCosine, cfg.Dim(), 1); err != nil {
		t.Fatal(err)
	}
	f.Close()

	diagPath := filepath.Join(t.TempDir(), "diag.json")
	runs := obs.Default().Counter("geacc_mcflow_runs_total")
	before := runs.Value()
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-algo", "mincostflow", "-decompose", "-diag-out", diagPath, "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	moved := runs.Value() - before
	raw, err := os.ReadFile(diagPath)
	if err != nil {
		t.Fatal(err)
	}
	var d core.Diagnostics
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if d.Decomposition == nil || d.Decomposition.Components < 2 {
		t.Fatalf("decomposition block = %+v", d.Decomposition)
	}
	if moved != int64(d.Decomposition.Components) {
		t.Errorf("%d flow runs for %d components, want one each", moved, d.Decomposition.Components)
	}
	if want := core.RelaxedUpperBound(in); math.Abs(d.RelaxedUpperBound-want) > 1e-9*want {
		t.Errorf("bound %v, monolithic %v", d.RelaxedUpperBound, want)
	}
}

func TestSolveTraceOut(t *testing.T) {
	path := writeInstance(t)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-algo", "exact", "-trace-out", tracePath, "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, raw)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	names := make(map[string]bool)
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q: ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("event %q: negative ts/dur (%v, %v)", ev.Name, ev.Ts, ev.Dur)
		}
		names[ev.Name] = true
	}
	if !names["solve/exact"] {
		t.Errorf("missing solve/exact span; got %v", names)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", trace.DisplayTimeUnit)
	}
}

func TestSolveBadLoggingFlags(t *testing.T) {
	path := writeInstance(t)
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-log-level", "loud"}, &out); err == nil {
		t.Error("bad -log-level accepted")
	}
	if err := run([]string{"-in", path, "-log-format", "xml"}, &out); err == nil {
		t.Error("bad -log-format accepted")
	}
}
