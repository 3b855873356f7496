package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/encoding"
)

// Every JSON response body is built whole before the first byte goes out:
// the status is only sent once encoding has succeeded, so a value
// encoding/json refuses (a NaN or ±Inf float) answers 500 with an error
// body instead of a 200 with an empty one. The bytes are those of
// json.Encoder with SetIndent("", "  "), trailing newline included; the
// three responses that carry a matching write them without reflection.

// respPool recycles the buffers response bodies are built in. Buffers that
// grew past maxPooledResponse are dropped, so one huge response does not
// pin its memory for the life of the process.
var respPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResponse = 4 << 20

// writeResponse builds a body with encode in a pooled buffer and sends it
// with status, a Content-Length and one Write. When encode fails nothing
// has been sent yet, and the answer is a 500 error.
func writeResponse(w http.ResponseWriter, r *http.Request, status int, encode func([]byte) ([]byte, error)) {
	bp := respPool.Get().(*[]byte)
	b, err := encode((*bp)[:0])
	if cap(b) <= maxPooledResponse {
		*bp = b[:0]
		defer respPool.Put(bp)
	}
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b)
}

func writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	writeJSONStatus(w, r, http.StatusOK, v)
}

// writeJSONStatus writes v through encoding/json with an explicit status
// code.
func writeJSONStatus(w http.ResponseWriter, r *http.Request, status int, v any) {
	writeResponse(w, r, status, func(b []byte) ([]byte, error) { return appendIndented(b, v) })
}

// appendIndented appends v as json.Encoder with SetIndent("", "  ")
// writes it.
func appendIndented(b []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(b)
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// appendSolveResponse appends the /solve payload, a SolveResponse: the
// matching through encoding.AppendMatching, the envelope by hand, and a
// non-nil Diagnostics through json.MarshalIndent one level deep.
func appendSolveResponse(b []byte, in *core.Instance, algo string, res *decomp.Result) ([]byte, error) {
	b = append(b, "{\n  \"matching\": "...)
	b, err := encoding.AppendMatching(b, res.M, 1)
	if err != nil {
		return b, err
	}
	b = append(b, ",\n  \"algo\": "...)
	b = encoding.AppendString(b, algo)
	b = append(b, ",\n  \"seconds\": "...)
	if b, err = encoding.AppendFloat(b, res.Elapsed.Seconds()); err != nil {
		return b, err
	}
	b = append(b, ",\n  \"events\": "...)
	b = strconv.AppendInt(b, int64(in.NumEvents()), 10)
	b = append(b, ",\n  \"users\": "...)
	b = strconv.AppendInt(b, int64(in.NumUsers()), 10)
	if res.Diag != nil {
		d, err := json.MarshalIndent(res.Diag, "  ", "  ")
		if err != nil {
			return b, err
		}
		b = append(b, ",\n  \"diagnostics\": "...)
		b = append(b, d...)
	}
	return append(b, "\n}\n"...), nil
}

// appendTraceResponse appends the /trace payload: the matching, then the
// steps through json.MarshalIndent one level deep.
func appendTraceResponse(b []byte, m *core.Matching, steps []TraceStepJSON) ([]byte, error) {
	b = append(b, "{\n  \"matching\": "...)
	b, err := encoding.AppendMatching(b, m, 1)
	if err != nil {
		return b, err
	}
	if steps == nil {
		steps = []TraceStepJSON{}
	}
	s, err := json.MarshalIndent(steps, "  ", "  ")
	if err != nil {
		return b, err
	}
	b = append(b, ",\n  \"steps\": "...)
	b = append(b, s...)
	return append(b, "\n}\n"...), nil
}

// appendInstanceStatus appends the GET /instances/{id} payload, an
// InstanceStatus: the summary's fields through encoding/json, then the
// matching in insertion order.
func appendInstanceStatus(b []byte, sum InstanceSummary, m *core.Matching) ([]byte, error) {
	s, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return b, err
	}
	// The summary object ends in "\n}"; the matching joins it as its last
	// field.
	b = append(b, s[:len(s)-2]...)
	b = append(b, ",\n  \"matching\": "...)
	if b, err = encoding.AppendMatchingOrdered(b, m, 1); err != nil {
		return b, err
	}
	return append(b, "\n}\n"...), nil
}
