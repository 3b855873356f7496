package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/obs"
)

func TestGenSynthetic(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-kind", "synthetic", "-events", "8", "-users", "30", "-cf", "0.5", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	in, err := encoding.DecodeInstance(&out)
	if err != nil {
		t.Fatal(err)
	}
	if in.NumEvents() != 8 || in.NumUsers() != 30 {
		t.Fatalf("sizes %d/%d", in.NumEvents(), in.NumUsers())
	}
	if in.Conflicts.Edges() != 14 { // round(0.5 * 28)
		t.Errorf("|CF| = %d, want 14", in.Conflicts.Edges())
	}
}

func TestGenMeetup(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-kind", "meetup", "-city", "auckland"}, &out); err != nil {
		t.Fatal(err)
	}
	in, err := encoding.DecodeInstance(&out)
	if err != nil {
		t.Fatal(err)
	}
	if in.NumEvents() != 37 || in.NumUsers() != 569 {
		t.Fatalf("auckland sizes %d/%d, TABLE II says 37/569", in.NumEvents(), in.NumUsers())
	}
}

func TestGenScheduled(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-kind", "scheduled", "-events", "10", "-users", "40"}, &out); err != nil {
		t.Fatal(err)
	}
	in, err := encoding.DecodeInstance(&out)
	if err != nil {
		t.Fatal(err)
	}
	if in.NumEvents() != 10 {
		t.Fatalf("sizes %d", in.NumEvents())
	}
}

func TestGenToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.json")
	var out bytes.Buffer
	if err := run([]string{"-kind", "synthetic", "-events", "3", "-users", "5", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := encoding.DecodeInstance(f); err != nil {
		t.Fatal(err)
	}
}

func TestGenErrors(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"-kind", "bogus"},
		{"-kind", "synthetic", "-events", "0"},
		{"-kind", "synthetic", "-attrs", "pareto"},
		{"-kind", "meetup", "-city", "atlantis"},
		{"-kind", "scheduled", "-users", "-1"},
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestGenDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	args := []string{"-kind", "synthetic", "-events", "4", "-users", "6", "-seed", "9"}
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed, different instance")
	}
}

// TestGenOutputDecodesOnFastPath pins that every kind's output, indented as
// written, takes the instance decoder's single-pass parser and never its
// encoding/json fallback.
func TestGenOutputDecodesOnFastPath(t *testing.T) {
	fallbacks := obs.Default().Counter("geacc_instance_decode_fallback_total")
	for _, args := range [][]string{
		{"-kind", "synthetic", "-events", "8", "-users", "30"},
		{"-kind", "synthetic", "-events", "8", "-users", "30", "-attrs", "normal", "-caps", "normal"},
		{"-kind", "synthetic", "-events", "8", "-users", "30", "-attrs", "zipf"},
		{"-kind", "meetup", "-city", "auckland"},
		{"-kind", "scheduled", "-events", "10", "-users", "40"},
		{"-kind", "clustered", "-events", "16", "-users", "80", "-bridge-frac", "0.1"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		before := fallbacks.Value()
		if _, err := encoding.DecodeInstance(&out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if n := fallbacks.Value() - before; n != 0 {
			t.Errorf("%v: decoded through the fallback (%d)", args, n)
		}
	}
}
