package encoding

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"

	"github.com/ebsnlab/geacc/internal/core"
)

// The appenders below write a response's bytes straight into a []byte,
// byte for byte what json.Encoder with SetIndent("", "  ") writes for the
// same value, but without reflection, without a second indenting pass and
// without a sorted copy of the pairs in a MatchingJSON.

// sortedPool recycles the scratch AppendMatching sorts pairs into. Slices
// that grew past maxPooledPairs are dropped, as bodyPool drops big bodies.
var sortedPool = sync.Pool{New: func() any { return new([]core.Assignment) }}

const maxPooledPairs = maxPooledBody / 24 // an Assignment is 24 bytes

// blanks serves indentation without a loop up to its length.
const blanks = "                                "

// AppendMatching appends m as the object {"pairs": [...], "max_sum": x}
// with pairs in (v, u) order (core.Matching.AppendSortedPairs), indented
// as json.Encoder with SetIndent("", "  ") writes a MatchingJSON that sits
// depth levels deep: depth 0 is a top-level document, 1 a field of one.
// The opening brace goes where b ends and nothing follows the closing one.
// A non-finite similarity or max_sum is an error, as in encoding/json.
func AppendMatching(b []byte, m *core.Matching, depth int) ([]byte, error) {
	sp := sortedPool.Get().(*[]core.Assignment)
	sorted := m.AppendSortedPairs((*sp)[:0])
	b, err := appendPairs(b, sorted, m.MaxSum(), depth)
	if cap(sorted) <= maxPooledPairs {
		*sp = sorted
		sortedPool.Put(sp)
	}
	return b, err
}

// AppendMatchingOrdered is AppendMatching with the pairs in the matching's
// insertion order, as GET /instances/{id} lists them.
func AppendMatchingOrdered(b []byte, m *core.Matching, depth int) ([]byte, error) {
	return appendPairs(b, m.Pairs(), m.MaxSum(), depth)
}

func appendPairs(b []byte, pairs []core.Assignment, maxSum float64, depth int) ([]byte, error) {
	var err error
	b = append(b, '{')
	b = appendIndent(b, depth+1)
	b = append(b, `"pairs": [`...)
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendIndent(b, depth+2)
		b = append(b, '{')
		b = appendIndent(b, depth+3)
		b = append(b, `"v": `...)
		b = strconv.AppendInt(b, int64(p.V), 10)
		b = append(b, ',')
		b = appendIndent(b, depth+3)
		b = append(b, `"u": `...)
		b = strconv.AppendInt(b, int64(p.U), 10)
		b = append(b, ',')
		b = appendIndent(b, depth+3)
		b = append(b, `"sim": `...)
		if b, err = AppendFloat(b, p.Sim); err != nil {
			return b, err
		}
		b = appendIndent(b, depth+2)
		b = append(b, '}')
	}
	if len(pairs) > 0 {
		b = appendIndent(b, depth+1)
	}
	b = append(b, "],"...)
	b = appendIndent(b, depth+1)
	b = append(b, `"max_sum": `...)
	if b, err = AppendFloat(b, maxSum); err != nil {
		return b, err
	}
	b = appendIndent(b, depth)
	return append(b, '}'), nil
}

// appendIndent starts a new line at the given indent level.
func appendIndent(b []byte, level int) []byte {
	b = append(b, '\n')
	for n := 2 * level; n > 0; n -= len(blanks) {
		b = append(b, blanks[:min(n, len(blanks))]...)
	}
	return b
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// 'f' form, or the 'e' form below 1e-6 and at or above 1e21 (zero
// excepted) with a two-digit negative exponent cleaned to one digit (e-09
// becomes e-9). NaN and ±Inf are encoding/json's UnsupportedValueError.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// AppendString appends s as a JSON string the way encoding/json writes it
// (HTML-escaped). Printable ASCII with nothing to escape is copied as is;
// anything else goes through json.Marshal.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
