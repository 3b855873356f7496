// Package encoding (de)serializes GEACC instances and matchings.
//
// The JSON instance format carries events (attributes + capacity), users,
// the conflicting pair list, and the similarity definition — either a named
// similarity function over the attribute space or an explicit matrix.
// Matchings round-trip as JSON or as a compact CSV (v,u,sim rows) for the
// command-line tools.
//
// Instances decode in one pass: a body in the canonical form that
// EncodeInstance writes (compacted or indented) is parsed without
// reflection, numbers into shared fixed-size chunks. Any other body, and any
// body whose read fails, is decoded by encoding/json over the same bytes,
// so what is accepted, and every error message, is encoding/json's. The
// geacc_instance_decode_fallback_total counter counts those bodies.
//
// Responses encode in one pass the other way: AppendMatching writes a
// matching's pairs, in (v, u) order from a counting pass, straight into a
// []byte, with floats formatted by encoding/json's own rule, so the bytes
// equal json.Encoder's indented output without reflection or re-indenting.
package encoding

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/sim"
)

// SimKind names a similarity function in the serialized form.
type SimKind string

// Supported serialized similarity functions.
const (
	SimEuclidean SimKind = "euclidean" // the paper's Equation 1
	SimCosine    SimKind = "cosine"
	SimManhattan SimKind = "manhattan"
	SimMatrix    SimKind = "matrix" // explicit values
)

// InstanceJSON is the serialized instance.
type InstanceJSON struct {
	Events    []EntityJSON `json:"events"`
	Users     []EntityJSON `json:"users"`
	Conflicts [][2]int     `json:"conflicts,omitempty"`

	Sim  SimKind `json:"sim"`
	Dim  int     `json:"dim,omitempty"`   // attribute dimensionality (function sims)
	MaxT float64 `json:"max_t,omitempty"` // attribute bound T (function sims)

	Matrix [][]float64 `json:"matrix,omitempty"` // explicit similarities
}

// EntityJSON is one serialized event or user.
type EntityJSON struct {
	Attrs []float64 `json:"attrs,omitempty"`
	Cap   int       `json:"cap"`
}

// EncodeInstance serializes an instance to JSON. Vector instances must have
// been built with one of this package's named similarity kinds; pass the
// kind that was used (sim.Func values cannot be introspected).
func EncodeInstance(w io.Writer, in *core.Instance, kind SimKind, dim int, maxT float64) error {
	doc := InstanceJSON{Sim: kind}
	for _, e := range in.Events {
		doc.Events = append(doc.Events, EntityJSON{Attrs: e.Attrs, Cap: e.Cap})
	}
	for _, u := range in.Users {
		doc.Users = append(doc.Users, EntityJSON{Attrs: u.Attrs, Cap: u.Cap})
	}
	if in.Conflicts != nil {
		doc.Conflicts = in.Conflicts.Pairs()
	}
	if kind == SimMatrix {
		if in.Matrix == nil {
			return fmt.Errorf("encoding: matrix kind on a vector instance")
		}
		doc.Matrix = in.Matrix
	} else {
		if in.Matrix != nil {
			return fmt.Errorf("encoding: matrix instance must use the matrix kind")
		}
		if dim <= 0 {
			return fmt.Errorf("encoding: function similarity needs dim > 0")
		}
		// Only the distance-normalized kinds use T; cosine is scale-free, so
		// an instance created without max_t must still serialize.
		if (kind == SimEuclidean || kind == SimManhattan) && maxT <= 0 {
			return fmt.Errorf("encoding: %s similarity needs maxT > 0", kind)
		}
		doc.Dim = dim
		doc.MaxT = maxT
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// SimInfo carries the serialized similarity definition alongside a decoded
// instance, so callers can re-serialize faithfully.
type SimInfo struct {
	Kind SimKind
	Dim  int
	MaxT float64
}

// ID is the canonical similarity identity solve caches key on, e.g.
// "euclidean/4/100" (see solvecache.KeySpec.SimID). Matrix instances return
// "": their values are hashed from the content, so they need no identity.
func (info SimInfo) ID() string {
	if info.Kind == SimMatrix {
		return ""
	}
	return fmt.Sprintf("%s/%d/%v", info.Kind, info.Dim, info.MaxT)
}

// Func rebuilds the similarity function the info names. SimMatrix has no
// function form (matrix instances carry their values explicitly) and is an
// error, as is an unknown kind. The distance-normalized kinds need dim and
// maxT; missing parameters are an error here rather than a panic in the sim
// constructors, because this path is fed untrusted serialized input.
func (info SimInfo) Func() (sim.Func, error) {
	switch info.Kind {
	case SimEuclidean, SimManhattan:
		if info.Dim <= 0 || info.MaxT <= 0 {
			return nil, fmt.Errorf("encoding: %s similarity needs dim > 0 and max_t > 0 (got dim=%d, max_t=%v)",
				info.Kind, info.Dim, info.MaxT)
		}
	}
	switch info.Kind {
	case SimEuclidean:
		return sim.Euclidean(info.Dim, info.MaxT), nil
	case SimCosine:
		return sim.Cosine(), nil
	case SimManhattan:
		return sim.Manhattan(info.Dim, info.MaxT), nil
	case SimMatrix:
		return nil, fmt.Errorf("encoding: matrix similarity has no function form")
	}
	return nil, fmt.Errorf("encoding: unknown similarity kind %q", info.Kind)
}

// DecodeInstance parses an instance from JSON and rebuilds the similarity
// function or matrix.
func DecodeInstance(r io.Reader) (*core.Instance, error) {
	in, _, err := DecodeInstanceMeta(r)
	return in, err
}

// DecodeInstanceMeta is DecodeInstance plus the similarity metadata needed
// to re-serialize the instance without guessing. It reads r to EOF, but
// only the first top-level JSON value is decoded; unknown fields are an
// error.
func DecodeInstanceMeta(r io.Reader) (*core.Instance, SimInfo, error) {
	doc, err := decodeDoc(r)
	if err != nil {
		return nil, SimInfo{}, err
	}
	info := SimInfo{Kind: doc.Sim, Dim: doc.Dim, MaxT: doc.MaxT}
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

// MatchingJSON is the serialized matching.
type MatchingJSON struct {
	Pairs  []PairJSON `json:"pairs"`
	MaxSum float64    `json:"max_sum"`
}

// PairJSON is one serialized assignment.
type PairJSON struct {
	V   int     `json:"v"`
	U   int     `json:"u"`
	Sim float64 `json:"sim"`
}

// NewMatching builds a matching from serialized pairs, in their order. A
// pair listed twice is an error: core.Matching.Add would panic on it.
func NewMatching(pairs []PairJSON) (*core.Matching, error) {
	m := core.NewMatching()
	for _, p := range pairs {
		if m.Contains(p.V, p.U) {
			return nil, fmt.Errorf("encoding: duplicate pair (%d, %d)", p.V, p.U)
		}
		m.Add(p.V, p.U, p.Sim)
	}
	return m, nil
}

// EncodeMatching serializes a matching to JSON (pairs sorted by (v, u)),
// indented, with a trailing newline: the bytes json.Encoder with
// SetIndent("", "  ") writes for its MatchingJSON, written with one Write.
func EncodeMatching(w io.Writer, m *core.Matching) error {
	b, err := AppendMatching(nil, m, 0)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteMatchingCSV writes "v,u,sim" rows (with header) sorted by (v, u).
func WriteMatchingCSV(w io.Writer, m *core.Matching) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"v", "u", "sim"}); err != nil {
		return err
	}
	for _, p := range m.SortedPairs() {
		rec := []string{
			strconv.Itoa(p.V),
			strconv.Itoa(p.U),
			strconv.FormatFloat(p.Sim, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
