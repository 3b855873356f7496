package encoding

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
)

// stdlibDecodeInstanceMeta is the reference for DecodeInstanceMeta: the
// encoding/json decoder this package used before the single-pass parser,
// copied verbatim. Every input must decode identically through both.
func stdlibDecodeInstanceMeta(r io.Reader) (*core.Instance, SimInfo, error) {
	var doc InstanceJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	info := SimInfo{}
	if err := dec.Decode(&doc); err != nil {
		return nil, info, fmt.Errorf("encoding: %w", err)
	}
	info = SimInfo{Kind: doc.Sim, Dim: doc.Dim, MaxT: doc.MaxT}
	events := make([]core.Event, len(doc.Events))
	for i, e := range doc.Events {
		events[i] = core.Event{Attrs: e.Attrs, Cap: e.Cap}
	}
	users := make([]core.User, len(doc.Users))
	for i, u := range doc.Users {
		users[i] = core.User{Attrs: u.Attrs, Cap: u.Cap}
	}
	var cf *conflict.Graph
	if len(doc.Conflicts) > 0 {
		for _, p := range doc.Conflicts {
			if p[0] < 0 || p[0] >= len(events) || p[1] < 0 || p[1] >= len(events) {
				return nil, info, fmt.Errorf("encoding: conflict pair %v out of range", p)
			}
		}
		cf = conflict.FromPairs(len(events), doc.Conflicts)
	}
	var in *core.Instance
	var err error
	switch doc.Sim {
	case SimMatrix:
		in, err = core.NewMatrixInstance(events, users, cf, doc.Matrix)
	case SimEuclidean, SimCosine, SimManhattan:
		f, ferr := info.Func()
		if ferr != nil {
			return nil, info, ferr
		}
		in, err = core.NewInstance(events, users, cf, f)
	default:
		return nil, info, fmt.Errorf("encoding: unknown similarity kind %q", doc.Sim)
	}
	return in, info, err
}

var errCutRead = errors.New("read failed")

// cutReader serves doc and then, when cut > 0, fails with errCutRead
// after min(cut-1, len(doc)) bytes instead of reaching EOF.
func cutReader(doc []byte, cut uint16) io.Reader {
	if cut == 0 {
		return bytes.NewReader(doc)
	}
	n := min(int(cut)-1, len(doc))
	return io.MultiReader(bytes.NewReader(doc[:n]), errReader{errCutRead})
}

// sameDecode fails t unless both decoders, each given a fresh reader from
// open, agree on acceptance, error text, similarity info, shape, caps,
// the bits of every attribute and matrix entry, and the conflict pairs.
func sameDecode(t *testing.T, open func() io.Reader) {
	t.Helper()
	got, gotInfo, gotErr := DecodeInstanceMeta(open())
	want, wantInfo, wantErr := stdlibDecodeInstanceMeta(open())
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("error %v, reference %v", gotErr, wantErr)
	}
	if gotInfo.Kind != wantInfo.Kind || gotInfo.Dim != wantInfo.Dim ||
		math.Float64bits(gotInfo.MaxT) != math.Float64bits(wantInfo.MaxT) {
		t.Fatalf("info %+v, reference %+v", gotInfo, wantInfo)
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("instance %v, reference %v", got, want)
	}
	if got == nil {
		return
	}
	if len(got.Events) != len(want.Events) || len(got.Users) != len(want.Users) {
		t.Fatalf("shape %dx%d, reference %dx%d", len(got.Events), len(got.Users), len(want.Events), len(want.Users))
	}
	for v, e := range got.Events {
		if e.Cap != want.Events[v].Cap {
			t.Fatalf("event %d cap %d, reference %d", v, e.Cap, want.Events[v].Cap)
		}
		sameFloats(t, fmt.Sprintf("event %d attrs", v), e.Attrs, want.Events[v].Attrs)
	}
	for u, x := range got.Users {
		if x.Cap != want.Users[u].Cap {
			t.Fatalf("user %d cap %d, reference %d", u, x.Cap, want.Users[u].Cap)
		}
		sameFloats(t, fmt.Sprintf("user %d attrs", u), x.Attrs, want.Users[u].Attrs)
	}
	if (got.Matrix == nil) != (want.Matrix == nil) || len(got.Matrix) != len(want.Matrix) {
		t.Fatalf("matrix %v, reference %v", got.Matrix, want.Matrix)
	}
	for v, row := range got.Matrix {
		sameFloats(t, fmt.Sprintf("matrix row %d", v), row, want.Matrix[v])
	}
	if (got.Conflicts == nil) != (want.Conflicts == nil) {
		t.Fatalf("conflicts %v, reference %v", got.Conflicts, want.Conflicts)
	}
	if got.Conflicts != nil && fmt.Sprint(got.Conflicts.Pairs()) != fmt.Sprint(want.Conflicts.Pairs()) {
		t.Fatalf("conflicts %v, reference %v", got.Conflicts.Pairs(), want.Conflicts.Pairs())
	}
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%s %v, reference %v", what, got, want)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// canonicalDocs are inputs the single-pass parser must accept.
var canonicalDocs = []string{
	`{"events":[{"cap":1}],"users":[{"cap":1}],"sim":"matrix","matrix":[[0.5]]}`,
	`{"events":[{"attrs":[1,2],"cap":3}],"users":[{"attrs":[0,1],"cap":2}],"sim":"euclidean","dim":2,"max_t":10}`,
	`{"events":[],"users":[],"sim":"cosine"}`,
	`{"events":[{"cap":1},{"cap":2}],"users":[{"cap":1}],"conflicts":[[0,1]],"sim":"matrix","matrix":[[0.1],[0.9]]}`,
	"{\n  \"events\": [\n    {\n      \"attrs\": [\n        -0.5e-3,\n        1E+2\n      ],\n      \"cap\": 0\n    }\n  ],\n\t\"users\": [ {\"attrs\":[ 0 , -0 ], \"cap\":-1} ],\r\n  \"sim\": \"manhattan\", \"dim\": 2, \"max_t\": 1.25\n}\n",
	`{"events":[{"attrs":[],"cap":1}],"users":[{"cap":1,"attrs":[]}],"sim":"cosine","matrix":[]}`,
	`{"sim":"nope"}`,
	`{}`,
	`{"events":[{"attrs":[1],"cap":1}],"users":[{"attrs":[1,2],"cap":1}],"sim":"cosine","dim":1}`,
	`{"events":[{"cap":1}],"users":[{"cap":1}],"conflicts":[[0,5]],"sim":"matrix","matrix":[[0.5]]}`,
	`{"events":[{"cap":1}],"users":[{"cap":1}],"sim":"matrix","matrix":[[1.5]]}`,
	`{"events":[{"cap":1}],"users":[{"cap":1}],"sim":"matrix","matrix":[[]]}`,
	`{"sim":"euclidean","dim":9223372036854775807,"max_t":4.9e-324}`,
}

// fallbackDocs leave the canonical grammar: each must decode through
// encoding/json to exactly its result or error.
var fallbackDocs = map[string]string{
	"case-folded key":  `{"Events":[{"CAP":1}],"users":[{"cap":1}],"sim":"matrix","Matrix":[[0.5]]}`,
	"duplicate key":    `{"events":[{"cap":1,"cap":2}],"users":[{"cap":1}],"sim":"cosine","sim":"matrix","matrix":[[0.5]]}`,
	"null field":       `{"events":null,"users":[],"conflicts":null,"sim":"cosine"}`,
	"null attr":        `{"events":[{"attrs":null,"cap":1}],"users":[],"sim":"cosine"}`,
	"null document":    `null`,
	"float overflow":   `{"events":[],"users":[],"sim":"euclidean","dim":1,"max_t":1e400}`,
	"fractional cap":   `{"events":[{"cap":1.0}],"users":[],"sim":"cosine"}`,
	"exponent dim":     `{"events":[],"users":[],"sim":"cosine","dim":1e1}`,
	"int overflow":     `{"events":[{"cap":99999999999999999999}],"users":[],"sim":"cosine"}`,
	"trailing bytes":   `{"events":[],"users":[],"sim":"cosine"} trailing garbage`,
	"second value":     `{"events":[],"users":[],"sim":"cosine"}{"sim":"x"}`,
	"escaped string":   `{"events":[],"users":[],"sim":"cos\u0069ne"}`,
	"non-ASCII string": `{"events":[],"users":[],"sim":"cosiné"}`,
	"short conflict":   `{"events":[{"cap":1},{"cap":1}],"users":[],"conflicts":[[1]],"sim":"cosine"}`,
	"long conflict":    `{"events":[{"cap":1},{"cap":1}],"users":[],"conflicts":[[0,1,7]],"sim":"cosine"}`,
	"unknown field":    `{"events":[],"users":[],"sim":"matrix","matrix":[],"bogus":1}`,
	"string number":    `{"events":[{"cap":"1"}],"users":[],"sim":"cosine"}`,
	"leading zero":     `{"events":[{"attrs":[01],"cap":1}],"users":[],"sim":"cosine"}`,
	"bad number":       `{"events":[{"attrs":[1.],"cap":1}],"users":[],"sim":"cosine"}`,
	"top-level array":  `[]`,
	"empty body":       ``,
	"truncated":        `{"events":[{"attrs":[1,2`,
	"byte order mark":  "\ufeff{}",
}

func TestDecodeFallbackMatchesStdlib(t *testing.T) {
	for name, doc := range fallbackDocs {
		t.Run(name, func(t *testing.T) {
			if _, ok := parseCanonical([]byte(doc)); ok {
				t.Fatalf("parsed on the fast path: %s", doc)
			}
			before := decodeFallbacks.Value()
			sameDecode(t, func() io.Reader { return strings.NewReader(doc) })
			if got := decodeFallbacks.Value() - before; got != 1 {
				t.Fatalf("fallback counter moved by %d, want 1", got)
			}
		})
	}
	// A body over the request limit fails the read: the decoders must
	// agree whether or not the document ends before the limit.
	doc := []byte(canonicalDocs[1] + strings.Repeat(" ", 64) + "x")
	for _, limit := range []int64{10, int64(len(canonicalDocs[1])), int64(len(doc) - 1)} {
		t.Run(fmt.Sprintf("oversize body limit %d", limit), func(t *testing.T) {
			sameDecode(t, func() io.Reader { return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(doc)), limit) })
		})
	}
}

func TestDecodeCanonicalMatchesStdlib(t *testing.T) {
	// Rows longer than an arena chunk, one straddling a chunk boundary.
	row := strings.TrimSuffix(strings.Repeat("0.5,", 9000), ",")
	long := `{"events":[{"cap":1},{"cap":1}],"users":[` + strings.TrimSuffix(strings.Repeat(`{"cap":1},`, 9000), ",") +
		`],"sim":"matrix","matrix":[[` + row + `],[` + row + `]]}`
	for _, doc := range append(canonicalDocs, long) {
		if _, ok := parseCanonical([]byte(doc)); !ok {
			t.Errorf("left the fast path: %s", doc)
		}
		sameDecode(t, func() io.Reader { return strings.NewReader(doc) })
	}
}

type namedBody struct {
	name string
	body []byte
}

// benchmarkShapes are the instances the end-to-end benchmark's solve
// workloads send: TABLE III 100×1000 and 20×200 euclidean, and the bridged
// 24×480 clustered cosine instance.
func benchmarkShapes(t testing.TB) []namedBody {
	t.Helper()
	synth := func(events, users int) *core.Instance {
		cfg := dataset.DefaultSynthetic()
		cfg.NumEvents, cfg.NumUsers, cfg.Seed = events, users, 1
		in, err := cfg.Generate()
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	clustered := dataset.DefaultClustered()
	clustered.NumEvents, clustered.NumUsers, clustered.BridgeFrac = 24, 480, 0.05
	bridged, err := clustered.Generate()
	if err != nil {
		t.Fatal(err)
	}
	compact := func(in *core.Instance, kind SimKind, dim int, maxT float64) []byte {
		var indented, out bytes.Buffer
		if err := EncodeInstance(&indented, in, kind, dim, maxT); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&out, indented.Bytes()); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	return []namedBody{
		{"greedy-100x1000", compact(synth(100, 1000), SimEuclidean, 20, 10000)},
		{"mcflow-20x200", compact(synth(20, 200), SimEuclidean, 20, 10000)},
		{"sharded-24x480", compact(bridged, SimCosine, clustered.Dim(), 1)},
	}
}

// TestDecodeFastPathCoverage pins that the bodies real clients send never
// reach the fallback: the benchmark's compacted shapes and an indented
// matrix instance as EncodeInstance writes it (geacc-gen's kinds are
// pinned in its own tests).
func TestDecodeFastPathCoverage(t *testing.T) {
	var matrix bytes.Buffer
	if err := EncodeInstance(&matrix, matrixInstance(t), SimMatrix, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, s := range append(benchmarkShapes(t), namedBody{"matrix-indented", matrix.Bytes()}) {
		if _, ok := parseCanonical(s.body); !ok {
			t.Errorf("%s left the fast path", s.name)
		}
		before := decodeFallbacks.Value()
		sameDecode(t, func() io.Reader { return bytes.NewReader(s.body) })
		if n := decodeFallbacks.Value() - before; n != 0 {
			t.Errorf("%s: fallback counter moved by %d", s.name, n)
		}
	}
}

// FuzzDecodeInstanceMatchesStdlib holds DecodeInstanceMeta to the encoding/json
// reference on arbitrary bodies; cut > 0 makes the read fail after cut-1
// bytes, so read errors are compared too.
func FuzzDecodeInstanceMatchesStdlib(f *testing.F) {
	for _, doc := range canonicalDocs {
		f.Add(doc, uint16(0))
	}
	for _, doc := range fallbackDocs {
		f.Add(doc, uint16(0))
	}
	f.Add(canonicalDocs[1], uint16(20))
	f.Add(canonicalDocs[1], uint16(len(canonicalDocs[1])+1))
	f.Add(canonicalDocs[1]+" trailing", uint16(len(canonicalDocs[1])+3))
	f.Fuzz(func(t *testing.T, doc string, cut uint16) {
		sameDecode(t, func() io.Reader { return cutReader([]byte(doc), cut) })
	})
}

var benchSink *core.Instance

// BenchmarkDecodeInstance decodes the benchmark's three request bodies with
// the single-pass parser (fast) and the encoding/json reference (stdlib).
func BenchmarkDecodeInstance(b *testing.B) {
	decoders := []struct {
		name   string
		decode func(io.Reader) (*core.Instance, SimInfo, error)
	}{{"fast", DecodeInstanceMeta}, {"stdlib", stdlibDecodeInstanceMeta}}
	for _, s := range benchmarkShapes(b) {
		for _, d := range decoders {
			b.Run(s.name+"/"+d.name, func(b *testing.B) {
				b.SetBytes(int64(len(s.body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					in, _, err := d.decode(bytes.NewReader(s.body))
					if err != nil {
						b.Fatal(err)
					}
					benchSink = in
				}
			})
		}
	}
}
