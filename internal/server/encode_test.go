package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"sort"
	"testing"
	"time"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/encoding"
)

// TraceResponse is the /trace payload's shape: the greedy arrangement plus
// every heap-pop decision in order.
type TraceResponse struct {
	Matching encoding.MatchingJSON `json:"matching"`
	Steps    []TraceStepJSON       `json:"steps"`
}

// matchingDoc is the reference form of a response's matching: the pairs
// sorted by (v, u) with sort.Slice, or left in insertion order, and an
// empty (never nil) pair list for an empty matching — what the handlers
// embedded in their structs before the one-pass encoder.
func matchingDoc(m *core.Matching, sorted bool) encoding.MatchingJSON {
	pairs := append([]core.Assignment(nil), m.Pairs()...)
	if sorted {
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].V != pairs[j].V {
				return pairs[i].V < pairs[j].V
			}
			return pairs[i].U < pairs[j].U
		})
	}
	doc := encoding.MatchingJSON{MaxSum: m.MaxSum(), Pairs: make([]encoding.PairJSON, 0, len(pairs))}
	for _, p := range pairs {
		doc.Pairs = append(doc.Pairs, encoding.PairJSON{V: p.V, U: p.U, Sim: p.Sim})
	}
	return doc
}

// stdlibIndented is how every response was written before the one-pass
// encoder: json.Encoder with SetIndent("", "  ").
func stdlibIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// fuzzPairs turns each 10 bytes of data into a pair: event b[0]%8, user
// b[1]%32 and the similarity's float64 bits from the next 8 bytes
// (little endian). Repeated pairs are skipped.
func fuzzPairs(data []byte) *core.Matching {
	m := core.NewMatching()
	for ; len(data) >= 10; data = data[10:] {
		v, u := int(data[0]%8), int(data[1]%32)
		if !m.Contains(v, u) {
			m.Add(v, u, math.Float64frombits(binary.LittleEndian.Uint64(data[2:10])))
		}
	}
	return m
}

// pairBytes is fuzzPairs' inverse for seed inputs: pair i is (i%8, i) with
// similarity sims[i].
func pairBytes(sims ...float64) []byte {
	var out []byte
	for i, s := range sims {
		out = append(out, byte(i%8), byte(i))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s))
	}
	return out
}

// FuzzEncodeMatchesStdlib: the one-pass encoders must write exactly the
// bytes json.Encoder with SetIndent("", "  ") writes for the same response
// struct, and fail exactly when it fails (a NaN or ±Inf anywhere). It
// covers encoding.EncodeMatching, the /solve payload with and without
// Diagnostics, the /trace payload and GET /instances/{id} (insertion
// order). The seeds put similarities, max_sum and the timing next to
// encoding/json's format switches (1e-6 and 1e21), on −0 and subnormals,
// on values whose sum overflows to +Inf, on ±Inf and NaN, and on an empty
// matching.
//
// Run it with: go test -run '^$' -fuzz FuzzEncodeMatchesStdlib -fuzztime 20s ./internal/server
func FuzzEncodeMatchesStdlib(f *testing.F) {
	f.Add([]byte{}, int64(0), "greedy", false, 0.0)
	f.Add(pairBytes(0.5, 0.25, 0.125), int64(19_050_000), "greedy", true, 0.01)
	f.Add(pairBytes(1e-6, math.Nextafter(1e-6, 0), 1e-7, 9.99e-7), int64(1), "mincostflow", true, 1e-6)
	f.Add(pairBytes(1e21, math.Nextafter(1e21, 0), 1e20, 1.5e21), int64(999), "exact", false, 1e21)
	f.Add(pairBytes(math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 2.2250738585072014e-308), int64(-1), "random-u", true, math.Copysign(0, -1))
	f.Add(pairBytes(1.7e308, 1.7e308), int64(5), "greedy", false, 0.0)
	f.Add(pairBytes(0.5, math.Inf(1)), int64(5), "greedy", true, 0.0)
	f.Add(pairBytes(math.Inf(-1)), int64(5), "greedy", false, 0.0)
	f.Add(pairBytes(math.NaN(), 0.5), int64(5), "greedy", false, 0.0)
	f.Add(pairBytes(0.5), int64(5), "<&> \"q\"\u2028", true, math.NaN())
	in, err := core.NewMatrixInstance([]core.Event{{Cap: 1}, {Cap: 2}}, []core.User{{Cap: 1}, {Cap: 1}, {Cap: 1}},
		nil, [][]float64{{0, 0, 0}, {0, 0, 0}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, elapsedNS int64, algo string, withDiag bool, gap float64) {
		m := fuzzPairs(data)
		check := func(what string, got []byte, gotErr error, want any) {
			t.Helper()
			wantBytes, wantErr := stdlibIndented(want)
			switch {
			case (gotErr != nil) != (wantErr != nil):
				t.Fatalf("%s: error %v, stdlib error %v", what, gotErr, wantErr)
			case wantErr == nil && !bytes.Equal(got, wantBytes):
				t.Fatalf("%s:\n%s\nstdlib:\n%s", what, got, wantBytes)
			}
		}

		var buf bytes.Buffer
		err := encoding.EncodeMatching(&buf, m)
		check("EncodeMatching", buf.Bytes(), err, matchingDoc(m, true))

		res := &decomp.Result{M: m, Elapsed: time.Duration(elapsedNS)}
		if withDiag {
			res.Diag = &core.Diagnostics{Algo: algo, Events: in.NumEvents(), Pairs: m.Size(), MaxSum: m.MaxSum(),
				RelaxedUpperBound: m.MaxSum() + gap, Gap: gap, Seconds: res.Elapsed.Seconds(),
				Phases:       []core.PhaseTiming{{Name: "solve/" + algo, Seconds: gap}},
				MetricDeltas: map[string]int64{"geacc_greedy_pops_total": int64(m.Size())}}
		}
		got, err := appendSolveResponse(nil, in, algo, res)
		check("solve response", got, err, SolveResponse{Matching: matchingDoc(m, true), Algo: algo,
			Seconds: res.Elapsed.Seconds(), Events: in.NumEvents(), Users: in.NumUsers(), Diagnostics: res.Diag})

		var steps []TraceStepJSON
		for i, p := range m.Pairs() {
			step := TraceStepJSON{V: p.V, U: p.U, Sim: p.Sim, Accepted: i%2 == 0}
			if !step.Accepted {
				step.Reason = algo
			}
			steps = append(steps, step)
		}
		got, err = appendTraceResponse(nil, m, steps)
		if steps == nil {
			steps = []TraceStepJSON{}
		}
		check("trace response", got, err, TraceResponse{Matching: matchingDoc(m, true), Steps: steps})

		sum := InstanceSummary{ID: algo, Sim: encoding.SimEuclidean, Dim: int(elapsedNS % 4), MaxT: gap,
			Events: in.NumEvents(), Users: in.NumUsers(), Pairs: m.Size(), MaxSum: m.MaxSum(), Seq: elapsedNS}
		if withDiag {
			sum.DirtyEvents, sum.DirtyUsers = []int{}, []int{1, 0}
		}
		got, err = appendInstanceStatus(nil, sum, m)
		check("instance status", got, err, InstanceStatus{InstanceSummary: sum, Matching: matchingDoc(m, false)})
	})
}

// BenchmarkSolveResponseEncode times the encode layer of /solve on the
// TABLE III 100×1000 shape (seed 7, 2,499 greedy pairs): "stdlib" is the
// path before the one-pass encoder (a sort.Slice copy of the pairs in a
// SolveResponse, then json.Encoder with SetIndent), "append" is
// appendSolveResponse into a reused buffer. Both write the same bytes.
//
//	go test -run '^$' -bench SolveResponseEncode -benchmem ./internal/server
func BenchmarkSolveResponseEncode(b *testing.B) {
	cfg := dataset.DefaultSynthetic()
	cfg.Seed = 7
	in, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	res := &decomp.Result{M: core.Greedy(in), Elapsed: 19 * time.Millisecond}
	stdlib := func(buf *bytes.Buffer) error {
		enc := json.NewEncoder(buf)
		enc.SetIndent("", "  ")
		return enc.Encode(SolveResponse{Matching: matchingDoc(res.M, true), Algo: "greedy",
			Seconds: res.Elapsed.Seconds(), Events: in.NumEvents(), Users: in.NumUsers()})
	}
	var want bytes.Buffer
	if err := stdlib(&want); err != nil {
		b.Fatal(err)
	}
	got, err := appendSolveResponse(nil, in, "greedy", res)
	if err != nil || !bytes.Equal(got, want.Bytes()) {
		b.Fatalf("appendSolveResponse differs from the stdlib encoding (err %v)", err)
	}
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(want.Len()))
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := stdlib(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(want.Len()))
		var buf []byte
		for i := 0; i < b.N; i++ {
			if buf, err = appendSolveResponse(buf[:0], in, "greedy", res); err != nil {
				b.Fatal(err)
			}
		}
	})
}
