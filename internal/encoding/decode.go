package encoding

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"github.com/ebsnlab/geacc/internal/obs"
)

// decodeFallbacks counts instance bodies that left the canonical grammar
// (or whose read failed) and went through encoding/json.
var decodeFallbacks = obs.Default().Counter("geacc_instance_decode_fallback_total")

// bodyPool recycles the buffers instance bodies are read into. Buffers
// that grew past maxPooledBody are dropped, so one huge body does not pin
// its memory for the life of the process.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 4 << 20

// decodeDoc reads one instance document from r. Canonical bodies — the
// form EncodeInstance and geacc-gen write, compacted or indented — are
// parsed in one pass by parseCanonical. Anything else, and any body whose
// read fails, goes to encoding/json over the same bytes, followed by the
// read error, so acceptance and error text are exactly encoding/json's:
// only the first top-level value is read, unknown fields are an error.
func decodeDoc(r io.Reader) (InstanceJSON, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	_, rerr := buf.ReadFrom(r)
	if rerr == nil {
		if doc, ok := parseCanonical(buf.Bytes()); ok {
			return doc, nil
		}
	}
	decodeFallbacks.Inc()
	var rest io.Reader = bytes.NewReader(buf.Bytes())
	if rerr != nil {
		rest = io.MultiReader(rest, errReader{rerr})
	}
	var doc InstanceJSON
	dec := json.NewDecoder(rest)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return InstanceJSON{}, fmt.Errorf("encoding: %w", err)
	}
	return doc, nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// parseCanonical parses b when it is one instance object in the canonical
// grammar, and reports false otherwise. Its results equal encoding/json's
// on every input it accepts:
//
//   - keys are exact lower-case field names, each at most once (json folds
//     case and lets a repeated key overwrite);
//   - no null anywhere, and strings carry only printable ASCII, no escapes;
//   - cap, dim and conflict ids are integers without fraction or exponent,
//     and each conflict is exactly two ids (json zero-fills or truncates);
//   - every number matches JSON's number grammar and is read in one pass
//     (readNumber) into the float64 strconv.ParseFloat(s, 64) — the call
//     encoding/json makes — would return, by paths that each round
//     correctly (number.float), so floats are bit-identical; an
//     out-of-range one is left to the fallback;
//   - nothing but whitespace follows the object (json.Decoder ignores it).
//
// Present-but-empty arrays decode to empty non-nil slices and absent ones
// to nil, as with encoding/json.
func parseCanonical(b []byte) (InstanceJSON, bool) {
	p := parser{b: b}
	var doc InstanceJSON
	var floats arena
	var seen uint8
	ok := p.object(func(key []byte) bool {
		var bit uint8
		ok := false
		switch string(key) {
		case "events":
			bit = 1
			doc.Events, ok = p.entities(&floats)
		case "users":
			bit = 2
			doc.Users, ok = p.entities(&floats)
		case "conflicts":
			bit = 4
			doc.Conflicts, ok = p.conflicts()
		case "sim":
			bit = 8
			var s []byte
			s, ok = p.str()
			doc.Sim = SimKind(s)
		case "dim":
			bit = 16
			doc.Dim, ok = p.int()
		case "max_t":
			bit = 32
			doc.MaxT, ok = p.float()
		case "matrix":
			bit = 64
			doc.Matrix = [][]float64{}
			ok = p.list(func() bool {
				row, ok := floats.row(&p)
				doc.Matrix = append(doc.Matrix, row)
				return ok
			})
		}
		// A repeated key fails after its value was parsed; nothing parsed
		// is used once any step fails.
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		return ok
	})
	p.ws()
	if !ok || p.i != len(b) {
		return InstanceJSON{}, false
	}
	return doc, true
}

// arena hands out float rows from fixed-size chunks that never move, so
// each row is cut as soon as it is parsed. A row that would overflow its
// chunk moves, with the numbers parsed so far, to a fresh one; chunks
// stay at the 32 KiB size class unless a single row needs more.
type arena struct {
	chunk []float64 // current chunk; its filled prefix holds finished rows
}

const arenaChunk = 4096

// row parses one array of numbers into the arena. Its loop reads the
// numbers itself rather than through list, the one per-element call the
// instance's attribute arrays would otherwise pay.
func (a *arena) row(p *parser) ([]float64, bool) {
	if !p.consume('[') {
		return nil, false
	}
	if p.consume(']') {
		return []float64{}, true // non-nil, as encoding/json decodes []
	}
	start := len(a.chunk)
	for {
		v, ok := p.float()
		if !ok {
			return nil, false
		}
		if len(a.chunk) == cap(a.chunk) {
			a.grow(start)
			start = 0
		}
		a.chunk = append(a.chunk, v)
		if p.consume(']') {
			n := len(a.chunk)
			return a.chunk[start:n:n], true
		}
		if !p.consume(',') {
			return nil, false
		}
	}
}

// grow starts a new chunk and moves the unfinished row a.chunk[start:]
// into it.
func (a *arena) grow(start int) {
	partial := a.chunk[start:]
	next := make([]float64, len(partial), max(arenaChunk, 2*len(partial)))
	copy(next, partial)
	a.chunk = next
}

// entities parses an array of {"attrs": [...], "cap": n} objects, taking
// the attributes from floats.
func (p *parser) entities(floats *arena) ([]EntityJSON, bool) {
	out := []EntityJSON{}
	ok := p.list(func() bool {
		var e EntityJSON
		var seen uint8
		ok := p.object(func(key []byte) bool {
			var bit uint8
			ok := false
			switch string(key) {
			case "attrs":
				bit = 1
				e.Attrs, ok = floats.row(p)
			case "cap":
				bit = 2
				e.Cap, ok = p.int()
			}
			if seen&bit != 0 {
				return false
			}
			seen |= bit
			return ok
		})
		out = append(out, e)
		return ok
	})
	return out, ok
}

// conflicts parses an array of [a, b] id pairs.
func (p *parser) conflicts() ([][2]int, bool) {
	out := [][2]int{}
	ok := p.list(func() bool {
		var pair [2]int
		k := 0
		ok := p.list(func() bool {
			if k == len(pair) {
				return false
			}
			var ok bool
			pair[k], ok = p.int()
			k++
			return ok
		})
		out = append(out, pair)
		return ok && k == len(pair)
	})
	return out, ok
}

// parser is a recursive-descent scanner over the canonical grammar. Every
// method reports false when the input leaves it.
type parser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, if c is next.
func (p *parser) consume(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// list parses '[' elem (',' elem)* ']' or '[]'.
func (p *parser) list(elem func() bool) bool {
	if !p.consume('[') {
		return false
	}
	if p.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if p.consume(']') {
			return true
		}
		if !p.consume(',') {
			return false
		}
	}
}

// object parses '{' key ':' value (',' key ':' value)* '}' or '{}'; field
// parses the value of key and rejects keys it does not know.
func (p *parser) object(field func(key []byte) bool) bool {
	if !p.consume('{') {
		return false
	}
	if p.consume('}') {
		return true
	}
	for {
		key, ok := p.str()
		if !ok || !p.consume(':') || !field(key) {
			return false
		}
		if p.consume('}') {
			return true
		}
		if !p.consume(',') {
			return false
		}
	}
}

// str parses a string of printable ASCII without escapes and returns its
// contents, which alias the input.
func (p *parser) str() ([]byte, bool) {
	if !p.consume('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		c := p.b[p.i]
		if c == '"' {
			p.i++
			return p.b[start : p.i-1], true
		}
		if c < 0x20 || c >= 0x7f || c == '\\' {
			return nil, false
		}
	}
	return nil, false
}

// float reads a number into a float64 exactly as encoding/json does.
func (p *parser) float() (float64, bool) {
	p.ws()
	start := p.i
	n, end, ok := readNumber(p.b, start)
	if !ok {
		return 0, false
	}
	p.i = end
	return n.float(p.b[start:end])
}

// int reads an integer that fits an int.
func (p *parser) int() (int, bool) {
	p.ws()
	n, end, ok := readNumber(p.b, p.i)
	if !ok {
		return 0, false
	}
	p.i = end
	return n.int()
}
