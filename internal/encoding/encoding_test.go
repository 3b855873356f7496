package encoding

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/sim"
)

// decodeMatching parses a matching document the way /validate reads the
// one it is sent: strict JSON, then NewMatching.
func decodeMatching(r io.Reader) (*core.Matching, error) {
	var doc MatchingJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("encoding: %w", err)
	}
	return NewMatching(doc.Pairs)
}

// readMatchingCSV parses the WriteMatchingCSV format: a header row, then
// one "v,u,sim" row per pair.
func readMatchingCSV(r io.Reader) (*core.Matching, error) {
	records, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	var pairs []PairJSON
	for i, rec := range records {
		if i == 0 {
			continue // header
		}
		if len(rec) != 3 {
			return nil, fmt.Errorf("row %d has %d fields, want 3", i, len(rec))
		}
		v, errV := strconv.Atoi(rec[0])
		u, errU := strconv.Atoi(rec[1])
		s, errS := strconv.ParseFloat(rec[2], 64)
		if err := errors.Join(errV, errU, errS); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		pairs = append(pairs, PairJSON{V: v, U: u, Sim: s})
	}
	return NewMatching(pairs)
}

func vectorInstance(t *testing.T) *core.Instance {
	t.Helper()
	in, err := core.NewInstance(
		[]core.Event{
			{Attrs: sim.Vector{1, 2}, Cap: 3},
			{Attrs: sim.Vector{5, 6}, Cap: 1},
		},
		[]core.User{
			{Attrs: sim.Vector{1, 1}, Cap: 2},
			{Attrs: sim.Vector{9, 9}, Cap: 1},
			{Attrs: sim.Vector{4, 5}, Cap: 1},
		},
		conflict.FromPairs(2, [][2]int{{0, 1}}),
		sim.Euclidean(2, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func matrixInstance(t *testing.T) *core.Instance {
	t.Helper()
	in, err := core.NewMatrixInstance(
		[]core.Event{{Cap: 2}, {Cap: 1}},
		[]core.User{{Cap: 1}, {Cap: 2}},
		nil,
		[][]float64{{0.3, 0.9}, {0.2, 0.5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestInstanceJSONRoundTripVector(t *testing.T) {
	in := vectorInstance(t)
	var buf bytes.Buffer
	if err := EncodeInstance(&buf, in, SimEuclidean, 2, 10); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEvents() != 2 || got.NumUsers() != 3 {
		t.Fatal("sizes lost")
	}
	for v := 0; v < 2; v++ {
		for u := 0; u < 3; u++ {
			if got.Similarity(v, u) != in.Similarity(v, u) {
				t.Fatalf("similarity (%d,%d) changed", v, u)
			}
		}
	}
	if !got.Conflicting(0, 1) {
		t.Fatal("conflicts lost")
	}
	if got.Events[0].Cap != 3 || got.Users[2].Cap != 1 {
		t.Fatal("capacities lost")
	}
}

func TestInstanceJSONRoundTripMatrix(t *testing.T) {
	in := matrixInstance(t)
	var buf bytes.Buffer
	if err := EncodeInstance(&buf, in, SimMatrix, 0, 0); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Similarity(0, 1) != 0.9 || got.Similarity(1, 0) != 0.2 {
		t.Fatal("matrix lost")
	}
	if got.Conflicts != nil && got.Conflicts.Edges() != 0 {
		t.Fatal("phantom conflicts")
	}
}

func TestInstanceJSONCosineAndManhattan(t *testing.T) {
	for _, kind := range []SimKind{SimCosine, SimManhattan} {
		in, err := core.NewInstance(
			[]core.Event{{Attrs: sim.Vector{1, 0}, Cap: 1}},
			[]core.User{{Attrs: sim.Vector{1, 1}, Cap: 1}},
			nil,
			sim.Cosine(), // placeholder; encoding carries the kind
		)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeInstance(&buf, in, kind, 2, 10); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if _, err := DecodeInstance(&buf); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

func TestEncodeInstanceErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeInstance(&buf, vectorInstance(t), SimMatrix, 0, 0); err == nil {
		t.Error("matrix kind on vector instance accepted")
	}
	if err := EncodeInstance(&buf, matrixInstance(t), SimEuclidean, 2, 10); err == nil {
		t.Error("function kind on matrix instance accepted")
	}
	if err := EncodeInstance(&buf, vectorInstance(t), SimEuclidean, 0, 10); err == nil {
		t.Error("missing dim accepted")
	}
	for _, kind := range []SimKind{SimEuclidean, SimManhattan} {
		if err := EncodeInstance(&buf, vectorInstance(t), kind, 2, 0); err == nil {
			t.Errorf("%s without maxT accepted", kind)
		}
	}
}

// TestEncodeCosineWithoutMaxT: cosine ignores T, so an instance created
// without max_t (as the service allows) must serialize and round-trip.
func TestEncodeCosineWithoutMaxT(t *testing.T) {
	in, err := core.NewInstance(
		[]core.Event{{Attrs: sim.Vector{1, 0}, Cap: 1}},
		[]core.User{{Attrs: sim.Vector{1, 1}, Cap: 1}},
		nil, sim.Cosine(),
	)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeInstance(&buf, in, SimCosine, 2, 0); err != nil {
		t.Fatalf("cosine without maxT rejected: %v", err)
	}
	if strings.Contains(buf.String(), "max_t") {
		t.Errorf("zero max_t serialized: %s", buf.String())
	}
	got, info, err := DecodeInstanceMeta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != SimCosine || info.Dim != 2 || info.MaxT != 0 {
		t.Errorf("sim info = %+v", info)
	}
	if got.Similarity(0, 0) != in.Similarity(0, 0) {
		t.Error("similarity changed through the round trip")
	}
}

// MatchingDoc is the reference form of a serialized matching: the pairs
// sorted by (v, u) with sort.Slice, an empty (never nil) pair list for an
// empty matching. Responses embedded it in their structs and json.Encoder
// wrote them; the one-pass encoder must give the same bytes.
func MatchingDoc(m *core.Matching) MatchingJSON {
	pairs := append([]core.Assignment(nil), m.Pairs()...)
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].V != pairs[j].V {
			return pairs[i].V < pairs[j].V
		}
		return pairs[i].U < pairs[j].U
	})
	doc := MatchingJSON{MaxSum: m.MaxSum(), Pairs: make([]PairJSON, 0, len(pairs))}
	for _, p := range pairs {
		doc.Pairs = append(doc.Pairs, PairJSON{V: p.V, U: p.U, Sim: p.Sim})
	}
	return doc
}

// encodeIndented is json.Encoder with SetIndent("", "  "), as the service
// wrote every response before the one-pass encoder.
func encodeIndented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMatchingDocMatchesRoundTrip: EncodeMatching, and AppendMatching one
// level deep in a response, must write exactly what json.Encoder writes for
// MatchingDoc — same pairs, same order, same float bits, [] (not null) when
// empty — and decoding it must give MatchingDoc back.
func TestMatchingDocMatchesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		m := core.NewMatching()
		n := rng.Intn(40)
		if trial == 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			v, u := rng.Intn(10), rng.Intn(30)
			if !m.Contains(v, u) {
				m.Add(v, u, rng.Float64())
			}
		}
		var buf bytes.Buffer
		if err := EncodeMatching(&buf, m); err != nil {
			t.Fatal(err)
		}
		if want := encodeIndented(t, MatchingDoc(m)); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("trial %d: EncodeMatching\n%s\nstdlib\n%s", trial, buf.Bytes(), want)
		}
		var back MatchingJSON
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, MatchingDoc(m)) {
			t.Fatalf("trial %d: round trip gave %+v", trial, back)
		}
		nested, err := AppendMatching([]byte("{\n  \"matching\": "), m, 1)
		if err != nil {
			t.Fatal(err)
		}
		nested = append(nested, "\n}\n"...)
		want := encodeIndented(t, struct {
			Matching MatchingJSON `json:"matching"`
		}{MatchingDoc(m)})
		if !bytes.Equal(nested, want) {
			t.Fatalf("trial %d: AppendMatching at depth 1\n%s\nstdlib\n%s", trial, nested, want)
		}
		if n == 0 && !bytes.Contains(buf.Bytes(), []byte(`"pairs": []`)) {
			t.Fatalf("empty matching serialized as %s", buf.Bytes())
		}
	}
}

// TestAppendFloatMatchesStdlib walks the values around encoding/json's
// format switches (1e-6 and 1e21), signed zeros, subnormals, the largest
// finite float and exponents that need the e-09 → e-9 clean-up; NaN and
// ±Inf must fail as they do in json.Marshal.
func TestAppendFloatMatchesStdlib(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e21, 1e20, 123456789,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, 1e-9, 5e-324, 1.5e-7, 1e100, 0.30000000000000004}
	for _, x := range []float64{1e-6, 1e21} {
		vals = append(vals, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)), -x)
	}
	for _, f := range vals {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat([]byte("x"), f)
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("AppendFloat(%v) = %q, %v; want x%s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		if _, err := AppendFloat(nil, f); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("AppendFloat(%v) error %v; json.Marshal says %v", f, err, want)
		}
	}
}

// TestAppendStringMatchesStdlib: plain ASCII is copied as is; quotes,
// backslashes, HTML characters, control bytes, non-ASCII and invalid UTF-8
// come out as json.Marshal writes them.
func TestAppendStringMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "greedy", "random-u", `a"b`, `a\b`, "<&>", "tab\there", "é", "\xff", "\u2028", "\x7f"} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s; want %s", s, got, want)
		}
	}
}

func TestDecodeInstanceErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":       `{`,
		"unknown kind":   `{"events":[],"users":[],"sim":"hamming"}`,
		"unknown field":  `{"events":[],"users":[],"sim":"matrix","matrix":[],"bogus":1}`,
		"conflict range": `{"events":[{"cap":1}],"users":[{"cap":1}],"conflicts":[[0,5]],"sim":"matrix","matrix":[[0.5]]}`,
		"bad matrix":     `{"events":[{"cap":1}],"users":[{"cap":1}],"sim":"matrix","matrix":[[1.5]]}`,
	}
	for name, doc := range cases {
		if _, err := DecodeInstance(strings.NewReader(doc)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestMatchingJSONRoundTrip(t *testing.T) {
	m := core.NewMatching()
	m.Add(1, 2, 0.75)
	m.Add(0, 0, 0.5)
	var buf bytes.Buffer
	if err := EncodeMatching(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := decodeMatching(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 2 || got.MaxSum() != 1.25 {
		t.Fatalf("round trip lost pairs: %+v", got.SortedPairs())
	}
	if !got.Contains(1, 2) || !got.Contains(0, 0) {
		t.Fatal("pairs lost")
	}
}

func TestMatchingJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeMatching(&buf, core.NewMatching()); err != nil {
		t.Fatal(err)
	}
	got, err := decodeMatching(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 0 {
		t.Fatal("phantom pairs")
	}
}

func TestDecodeMatchingRejectsDuplicates(t *testing.T) {
	doc := `{"pairs":[{"v":0,"u":0,"sim":0.5},{"v":0,"u":0,"sim":0.5}],"max_sum":1}`
	if _, err := decodeMatching(strings.NewReader(doc)); err == nil {
		t.Error("duplicate pairs accepted")
	}
}

func TestMatchingCSVRoundTrip(t *testing.T) {
	m := core.NewMatching()
	m.Add(3, 1, 0.123456789)
	m.Add(0, 2, 0.5)
	var buf bytes.Buffer
	if err := WriteMatchingCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.HasPrefix(text, "v,u,sim\n") {
		t.Fatalf("missing header: %q", text)
	}
	got, err := readMatchingCSV(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 2 || !got.Contains(3, 1) {
		t.Fatal("CSV round trip lost pairs")
	}
	if got.MaxSum() != m.MaxSum() {
		t.Fatalf("MaxSum %v != %v (float formatting must be lossless)", got.MaxSum(), m.MaxSum())
	}
}

func TestRandomInstanceRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		nv, nu, d := 1+rng.Intn(5), 1+rng.Intn(8), 1+rng.Intn(4)
		events := make([]core.Event, nv)
		for i := range events {
			events[i] = core.Event{Attrs: randVec(rng, d), Cap: rng.Intn(5)}
		}
		users := make([]core.User, nu)
		for i := range users {
			users[i] = core.User{Attrs: randVec(rng, d), Cap: rng.Intn(4)}
		}
		cf := conflict.Random(rng, nv, rng.Float64())
		in, err := core.NewInstance(events, users, cf, sim.Euclidean(d, 10))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeInstance(&buf, in, SimEuclidean, d, 10); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeInstance(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < nv; v++ {
			for u := 0; u < nu; u++ {
				if got.Similarity(v, u) != in.Similarity(v, u) {
					t.Fatal("similarity drift through JSON")
				}
			}
			for j := 0; j < nv; j++ {
				if got.Conflicting(v, j) != in.Conflicting(v, j) {
					t.Fatal("conflict drift through JSON")
				}
			}
		}
	}
}

func randVec(rng *rand.Rand, d int) sim.Vector {
	v := make(sim.Vector, d)
	for i := range v {
		v[i] = rng.Float64() * 10
	}
	return v
}
