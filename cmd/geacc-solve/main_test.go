package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/encoding"
)

// decodeMatching reads a matching document as geacc-solve writes it.
func decodeMatching(r io.Reader) (*core.Matching, error) {
	var doc encoding.MatchingJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	return encoding.NewMatching(doc.Pairs)
}

func writeInstance(t *testing.T) string {
	t.Helper()
	in, err := core.NewMatrixInstance(
		[]core.Event{{Cap: 2}, {Cap: 1}},
		[]core.User{{Cap: 1}, {Cap: 1}, {Cap: 2}},
		nil,
		[][]float64{{0.9, 0.1, 0.5}, {0.2, 0.8, 0.3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "inst.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := encoding.EncodeInstance(f, in, encoding.SimMatrix, 0, 0); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSolveJSONOutput(t *testing.T) {
	path := writeInstance(t)
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-algo", "greedy", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	m, err := decodeMatching(&out)
	if err != nil {
		t.Fatalf("output is not a matching: %v", err)
	}
	if m.Size() == 0 {
		t.Fatal("empty matching")
	}
}

func TestSolveCSVOutput(t *testing.T) {
	path := writeInstance(t)
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-algo", "exact", "-format", "csv", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "v,u,sim\n") {
		t.Fatalf("not CSV: %q", out.String())
	}
}

func TestSolveToFile(t *testing.T) {
	path := writeInstance(t)
	outPath := filepath.Join(t.TempDir(), "matching.json")
	var stdout bytes.Buffer
	if err := run([]string{"-in", path, "-out", outPath, "-quiet"}, &stdout); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Error("wrote to stdout despite -out")
	}
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := decodeMatching(f); err != nil {
		t.Fatal(err)
	}
}

func TestSolveErrors(t *testing.T) {
	path := writeInstance(t)
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "/nonexistent.json"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"-in", path, "-algo", "quantum"}, &out); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run([]string{"-in", path, "-format", "xml"}, &out); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestSolveReportFlag(t *testing.T) {
	path := writeInstance(t)
	var out bytes.Buffer
	// -report writes to stderr; success of the run plus valid stdout output
	// is what we can assert portably, for both bound modes.
	if err := run([]string{"-in", path, "-report", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeMatching(&out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-in", path, "-report", "-no-bound", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
}

func TestSolvePortfolioAndSession(t *testing.T) {
	path := writeInstance(t)
	sessionPath := filepath.Join(t.TempDir(), "session.json")
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-algo", "portfolio", "-session", sessionPath, "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	m, err := decodeMatching(&out)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(sessionPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, archived, meta, err := encoding.DecodeSession(f)
	if err != nil {
		t.Fatal(err)
	}
	if archived.MaxSum() != m.MaxSum() {
		t.Fatalf("archived MaxSum %v != printed %v", archived.MaxSum(), m.MaxSum())
	}
	if meta.Algorithm != "portfolio" || meta.CreatedAt.IsZero() {
		t.Fatalf("meta = %+v", meta)
	}
}

func TestSolveRandomBaselineSeeded(t *testing.T) {
	path := writeInstance(t)
	var a, b bytes.Buffer
	if err := run([]string{"-in", path, "-algo", "random-v", "-seed", "5", "-quiet"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", path, "-algo", "random-v", "-seed", "5", "-quiet"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed, different output")
	}
}
