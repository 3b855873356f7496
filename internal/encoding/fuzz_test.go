package encoding

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
)

// FuzzDecodeInstance asserts the decoder never panics and that anything it
// accepts re-encodes and re-decodes to an instance of the same shape.
func FuzzDecodeInstance(f *testing.F) {
	f.Add(`{"events":[{"cap":1}],"users":[{"cap":1}],"sim":"matrix","matrix":[[0.5]]}`)
	f.Add(`{"events":[{"attrs":[1,2],"cap":3}],"users":[{"attrs":[0,1],"cap":2}],"sim":"euclidean","dim":2,"max_t":10}`)
	f.Add(`{"events":[],"users":[],"sim":"cosine"}`)
	f.Add(`{"events":[{"cap":1},{"cap":2}],"users":[{"cap":1}],"conflicts":[[0,1]],"sim":"matrix","matrix":[[0.1],[0.9]]}`)
	f.Add(`{"sim":"nope"}`)
	f.Add(`[]`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, doc string) {
		in, info, err := DecodeInstanceMeta(strings.NewReader(doc))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		dim, maxT := info.Dim, info.MaxT
		if info.Kind == SimCosine && dim <= 0 {
			dim = 1 // the decoder lets cosine omit dim; encode needs a placeholder
		}
		if err := EncodeInstance(&buf, in, info.Kind, dim, maxT); err != nil {
			t.Fatalf("accepted instance failed to re-encode: %v", err)
		}
		again, err := DecodeInstance(&buf)
		if err != nil {
			t.Fatalf("re-encoded instance failed to decode: %v", err)
		}
		if again.NumEvents() != in.NumEvents() || again.NumUsers() != in.NumUsers() {
			t.Fatal("shape drift through round trip")
		}
	})
}

// FuzzDecodeMatching asserts that decoding a matching document the way
// /validate does never panics and that anything accepted is well-formed.
func FuzzDecodeMatching(f *testing.F) {
	f.Add(`{"pairs":[{"v":0,"u":0,"sim":0.5}],"max_sum":0.5}`)
	f.Add(`{"pairs":[],"max_sum":0}`)
	f.Add(`{"pairs":[{"v":-1,"u":0,"sim":2}]}`)
	f.Add(`{`)
	f.Fuzz(func(t *testing.T, doc string) {
		m, err := decodeMatching(strings.NewReader(doc))
		if err != nil {
			return
		}
		// Accepted matchings have consistent internal state.
		seen := map[[2]int]bool{}
		for _, p := range m.Pairs() {
			key := [2]int{p.V, p.U}
			if seen[key] {
				t.Fatal("decoder admitted duplicate pairs")
			}
			seen[key] = true
			if !m.Contains(p.V, p.U) {
				t.Fatal("pair list and index disagree")
			}
		}
	})
}

// FuzzReadMatchingCSV turns fuzzed CSV into matchings and checks that
// WriteMatchingCSV writes each one losslessly: reading its output back
// gives the same pairs with the same similarity bits.
func FuzzReadMatchingCSV(f *testing.F) {
	f.Add("v,u,sim\n0,1,0.5\n")
	f.Add("v,u,sim\n")
	f.Add("garbage")
	f.Add("v,u,sim\n0,0,0.5\n0,0,0.5\n")
	f.Add("v,u,sim\n3,1,0.123456789\n0,2,5e-324\n1,1,-0\n")
	f.Fuzz(func(t *testing.T, doc string) {
		m, err := readMatchingCSV(strings.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMatchingCSV(&buf, m); err != nil {
			t.Fatalf("matching failed to write: %v", err)
		}
		back, err := readMatchingCSV(&buf)
		if err != nil {
			t.Fatalf("written CSV failed to read back: %v\n%s", err, buf.String())
		}
		want, got := m.SortedPairs(), back.SortedPairs()
		if len(got) != len(want) {
			t.Fatalf("%d pairs read back, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].V != want[i].V || got[i].U != want[i].U ||
				math.Float64bits(got[i].Sim) != math.Float64bits(want[i].Sim) {
				t.Fatalf("pair %d read back as %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

// TestFuzzSeedsAsRegression runs the seed corpus deterministically even when
// fuzzing is not enabled, so `go test` exercises these paths.
func TestFuzzSeedsAsRegression(t *testing.T) {
	docs := []string{
		`{"events":[{"cap":1}],"users":[{"cap":1}],"sim":"matrix","matrix":[[0.5]]}`,
		`{"events":[],"users":[],"sim":"cosine"}`,
		`{"sim":"nope"}`,
	}
	for _, doc := range docs {
		_, _ = DecodeInstance(strings.NewReader(doc)) // must not panic
	}
	if _, err := DecodeInstance(strings.NewReader(docs[0])); err != nil {
		t.Fatal(err)
	}
	_ = core.NewMatching() // anchor the core import for future extensions
}
