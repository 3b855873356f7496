package encoding

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/ebsnlab/geacc/internal/core"
)

// SessionJSON bundles an instance with a matching and solve metadata — the
// natural archive format for one arrangement run (geacc-solve can be piped
// into it, dashboards can re-validate it later).
type SessionJSON struct {
	// Instance is embedded in its serialized form.
	Instance json.RawMessage `json:"instance"`
	Matching MatchingJSON    `json:"matching"`
	Meta     SessionMeta     `json:"meta"`
}

// SessionMeta records how the matching was produced. Seq is used by the
// service snapshot store (internal/store): it records the op-log sequence
// number the archived state corresponds to, so a restart knows where log
// replay must resume.
type SessionMeta struct {
	Algorithm string    `json:"algorithm"`
	Seed      int64     `json:"seed,omitempty"`
	Seconds   float64   `json:"seconds,omitempty"`
	CreatedAt time.Time `json:"created_at,omitempty"`
	Seq       int64     `json:"seq,omitempty"`

	// DirtyEvents/DirtyUsers are the service's pending dirty marks — node
	// ids touched by deltas since the last rebalance — at the moment the
	// snapshot was taken. Snapshots fold logged ops away, so without these
	// the marks of pre-snapshot deltas would be lost across a restart and
	// the next scope=dirty rebalance would silently skip their components.
	DirtyEvents []int `json:"dirty_events,omitempty"`
	DirtyUsers  []int `json:"dirty_users,omitempty"`
}

// EncodeSession writes the bundle. The instance is re-serialized with the
// given similarity kind (see EncodeInstance). Pairs are written sorted by
// (v, u); see EncodeSessionOrdered when the matching's insertion order is
// part of the state being archived.
func EncodeSession(w io.Writer, in *core.Instance, m *core.Matching, meta SessionMeta,
	kind SimKind, dim int, maxT float64) error {
	return encodeSession(w, in, m, meta, kind, dim, maxT, false)
}

// EncodeSessionOrdered is EncodeSession preserving the matching's insertion
// order. DecodeSession rebuilds the matching by adding pairs in listed
// order, so an ordered archive round-trips the matching bit-for-bit —
// including the float accumulation order of MaxSum. The arrangement-service
// snapshot store depends on this for exact crash recovery.
func EncodeSessionOrdered(w io.Writer, in *core.Instance, m *core.Matching, meta SessionMeta,
	kind SimKind, dim int, maxT float64) error {
	return encodeSession(w, in, m, meta, kind, dim, maxT, true)
}

func encodeSession(w io.Writer, in *core.Instance, m *core.Matching, meta SessionMeta,
	kind SimKind, dim int, maxT float64, ordered bool) error {
	if err := core.Validate(in, m); err != nil {
		return fmt.Errorf("encoding: refusing to archive an infeasible session: %w", err)
	}
	var instBuf bytes.Buffer
	if err := EncodeInstance(&instBuf, in, kind, dim, maxT); err != nil {
		return err
	}
	pairs := m.SortedPairs()
	if ordered {
		pairs = m.Pairs()
	}
	matching := MatchingJSON{MaxSum: m.MaxSum(), Pairs: make([]PairJSON, 0, len(pairs))}
	for _, p := range pairs {
		matching.Pairs = append(matching.Pairs, PairJSON{V: p.V, U: p.U, Sim: p.Sim})
	}
	doc := SessionJSON{
		Instance: json.RawMessage(instBuf.Bytes()),
		Matching: matching,
		Meta:     meta,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// DecodeSession reads the bundle back, re-validating the matching against
// the instance so a corrupted archive cannot masquerade as a result.
func DecodeSession(r io.Reader) (*core.Instance, *core.Matching, SessionMeta, error) {
	var doc SessionJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, nil, SessionMeta{}, fmt.Errorf("encoding: %w", err)
	}
	in, err := DecodeInstance(bytes.NewReader(doc.Instance))
	if err != nil {
		return nil, nil, SessionMeta{}, err
	}
	m, err := NewMatching(doc.Matching.Pairs)
	if err != nil {
		return nil, nil, SessionMeta{}, err
	}
	if err := core.Validate(in, m); err != nil {
		return nil, nil, SessionMeta{}, fmt.Errorf("encoding: archived session is infeasible: %w", err)
	}
	return in, m, doc.Meta, nil
}
