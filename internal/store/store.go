// Package store persists long-lived arrangement instances: an append-only
// JSONL operation log plus periodic snapshots, so a restarted geacc-server
// replays every named instance to its exact pre-crash state.
//
// On disk, a store is one directory per instance:
//
//	<data-dir>/<id>/meta.json      identity + similarity definition
//	<data-dir>/<id>/ops.jsonl      one Op per line, strictly increasing seq
//	<data-dir>/<id>/snapshot.json  session archive (internal/encoding) + the
//	                               op seq it covers; written atomically
//
// Durability model: every delta is appended to ops.jsonl before it is
// applied in memory (write-ahead), in a single Write call followed by an
// fsync, so neither a killed process nor an OS crash loses more than the op
// the client was told had not completed yet. Snapshot writes are fsynced
// before the atomic rename and the directory is synced after it. Snapshots
// bound recovery *time*, not correctness — replay is snapshot (if any) plus
// the ops with a larger seq. A torn final log line (the signature of a hard
// kill mid-append) is detected, truncated away, and replay proceeds;
// corruption anywhere else fails loudly. The log is never rewritten: it
// doubles as a complete audit trail of the instance's history (geacc-solve
// -replay walks it offline).
//
// Snapshots use encoding.EncodeSessionOrdered, which preserves the
// matching's insertion order — so a restored arranger reproduces the donor
// bit-for-bit, including the float accumulation order of MaxSum.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/obs"
)

// File names inside one instance directory.
const (
	metaFile     = "meta.json"
	opsFile      = "ops.jsonl"
	snapshotFile = "snapshot.json"
)

// Store-layer observability; the catalog lives in docs/OBSERVABILITY.md.
var (
	replaySeconds   = obs.Default().Histogram("geacc_replay_seconds", obs.DefaultLatencyBuckets)
	replayOps       = obs.Default().Counter("geacc_replay_ops_total")
	snapshotsTotal  = obs.Default().Counter("geacc_snapshots_total")
	snapshotSeconds = obs.Default().Histogram("geacc_snapshot_seconds", obs.DefaultLatencyBuckets)
)

// Meta identifies one persistent instance: its name and the similarity
// definition every event/user attribute vector is scored under. Only
// function similarities are allowed — a matrix instance cannot grow online.
type Meta struct {
	ID        string           `json:"id"`
	Sim       encoding.SimKind `json:"sim"`
	Dim       int              `json:"dim,omitempty"`
	MaxT      float64          `json:"max_t,omitempty"`
	CreatedAt time.Time        `json:"created_at"`
}

// SimInfo returns the meta's similarity definition in the encoding form.
func (m Meta) SimInfo() encoding.SimInfo {
	return encoding.SimInfo{Kind: m.Sim, Dim: m.Dim, MaxT: m.MaxT}
}

// Validate checks that the meta describes a servable instance: a valid id
// and a function similarity with every parameter an online instance needs.
// Dim > 0 is required for all kinds — cosine included, even though the
// cosine function itself takes no dimensionality — because Dim is what lets
// the service reject a wrong-length arrival before it is logged; without it
// a mismatched vector would reach the similarity kernel, which panics on
// unequal lengths (and, once logged, would panic again on every replay).
func (m Meta) Validate() error {
	if !ValidID(m.ID) {
		return fmt.Errorf("store: invalid instance id %q", m.ID)
	}
	switch m.Sim {
	case encoding.SimEuclidean, encoding.SimManhattan:
		if m.MaxT <= 0 {
			return fmt.Errorf("store: %s similarity needs max_t > 0, got %v", m.Sim, m.MaxT)
		}
	case encoding.SimCosine:
	case encoding.SimMatrix:
		return fmt.Errorf("store: matrix instances cannot grow online")
	default:
		return fmt.Errorf("store: unknown similarity kind %q", m.Sim)
	}
	if m.Dim <= 0 {
		return fmt.Errorf("store: instance needs dim > 0 (got %d) to validate arrival vectors", m.Dim)
	}
	return nil
}

// ValidID reports whether id is usable as an instance name: 1–64 characters
// from [a-zA-Z0-9._-], starting with a letter or digit (so an id is never
// ".", "..", or a dotfile, and is safe as a directory name).
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && c != '.' && c != '_' && c != '-' {
			return false
		}
	}
	return true
}

// Store is a directory of persistent instances.
type Store struct {
	dir string
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// InstanceDir returns the directory holding the named instance's files.
func (s *Store) InstanceDir(id string) string { return filepath.Join(s.dir, id) }

// List returns the ids of every instance in the store (directories with a
// meta.json), sorted.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(s.dir, e.Name(), metaFile)); err == nil {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Create allocates a new instance: its directory, meta.json, and an empty
// op log. It fails if the id is invalid or already exists.
func (s *Store) Create(meta Meta) (*Log, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	if _, err := meta.SimInfo().Func(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	dir := s.InstanceDir(meta.ID)
	if _, err := os.Stat(filepath.Join(dir, metaFile)); err == nil {
		return nil, fmt.Errorf("store: instance %q already exists", meta.ID)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if meta.CreatedAt.IsZero() {
		meta.CreatedAt = time.Now().UTC()
	}
	b, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, metaFile), append(b, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f, size, err := openOps(dir)
	if err != nil {
		return nil, err
	}
	return &Log{dir: dir, meta: meta, f: f, size: size}, nil
}

// openOps opens dir's ops.jsonl for appending, creating it if needed, and
// returns it with its length.
func openOps(dir string) (*os.File, int64, error) {
	f, err := os.OpenFile(filepath.Join(dir, opsFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	return f, fi.Size(), nil
}

// Probe verifies the store is still writable the same way an op append
// would be: it writes and fsyncs a small probe file in the store root
// (overwritten every call, never listed as an instance). The readiness
// endpoint runs it so a full or read-only disk flips /readyz before an
// acknowledged delta can fail to persist.
func (s *Store) Probe() error {
	path := filepath.Join(s.dir, ".readyz.probe")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: probe: %w", err)
	}
	_, err = fmt.Fprintf(f, "%d\n", time.Now().UnixNano())
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: probe: %w", err)
	}
	return nil
}

// Delete removes the named instance's directory and everything in it.
func (s *Store) Delete(id string) error {
	if !ValidID(id) {
		return fmt.Errorf("store: invalid instance id %q", id)
	}
	return os.RemoveAll(s.InstanceDir(id))
}

// readMeta loads an instance's meta.json.
func readMeta(dir string) (Meta, error) {
	var meta Meta
	b, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return meta, fmt.Errorf("store: %w", err)
	}
	if err := json.Unmarshal(b, &meta); err != nil {
		return meta, fmt.Errorf("store: bad meta.json: %w", err)
	}
	return meta, nil
}
