package store

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/sim"
)

// Op kinds. One Op is one delta applied to an instance's arranger; replaying
// the ops in seq order reproduces the arranger exactly (every kind is
// deterministic — rebalances record the adopted pairs instead of re-running
// the solver). That outcome-not-invocation framing is also what makes the
// warm-flow cache (core.WarmCache) safe: however a rebalance's components
// were produced — cold solve or warm-started flow — only the adopted pairs
// reach the log, so replay can neither consult a cache nor observe that
// one was used.
const (
	OpAddEvent    = "add_event"
	OpAddUser     = "add_user"
	OpCancelEvent = "cancel_event"
	OpRemoveUser  = "remove_user"
	OpRebalance   = "rebalance"
)

// Op is one logged delta. Fields are populated per kind: add_event uses
// Attrs/Cap/Conflicts, add_user uses Attrs/Cap, cancel_event and
// remove_user use Event/User, rebalance uses Adopted plus — when Adopted —
// Pairs, the full replacement matching in its insertion order.
type Op struct {
	Seq       int64               `json:"seq"`
	Kind      string              `json:"op"`
	Attrs     []float64           `json:"attrs,omitempty"`
	Cap       int                 `json:"cap,omitempty"`
	Conflicts []int               `json:"conflicts,omitempty"`
	Event     *int                `json:"event,omitempty"`
	User      *int                `json:"user,omitempty"`
	Adopted   bool                `json:"adopted,omitempty"`
	Pairs     []encoding.PairJSON `json:"pairs,omitempty"`
}

// Apply replays one op onto arr. Ops were validated before being logged, so
// failures indicate a log/arranger mismatch and are returned as errors.
func Apply(arr *core.Arranger, op Op) error {
	switch op.Kind {
	case OpAddEvent:
		_, err := arr.AddEvent(core.Event{Attrs: sim.Vector(op.Attrs), Cap: op.Cap}, op.Conflicts)
		return err
	case OpAddUser:
		_, err := arr.AddUser(core.User{Attrs: sim.Vector(op.Attrs), Cap: op.Cap})
		return err
	case OpCancelEvent:
		if op.Event == nil {
			return fmt.Errorf("store: cancel_event op %d has no event", op.Seq)
		}
		return arr.CancelEvent(*op.Event)
	case OpRemoveUser:
		if op.User == nil {
			return fmt.Errorf("store: remove_user op %d has no user", op.Seq)
		}
		return arr.RemoveUser(*op.User)
	case OpRebalance:
		if !op.Adopted {
			return nil
		}
		m, err := encoding.NewMatching(op.Pairs)
		if err != nil {
			return err
		}
		_, err = arr.SetMatching(m)
		return err
	}
	return fmt.Errorf("store: unknown op kind %q (seq %d)", op.Kind, op.Seq)
}

// Log is one instance's open persistence handle: the append end of
// ops.jsonl plus the snapshot bookkeeping. Methods are not safe for
// concurrent use — the service serializes them under its per-instance lock.
type Log struct {
	dir  string
	meta Meta
	f    *os.File

	seq        int64     // last appended (or replayed) op seq
	snapSeq    int64     // op seq the on-disk snapshot covers
	opsSince   int       // ops appended since that snapshot
	bytesSince int64     // ops.jsonl bytes past the snapshot's coverage
	snapAt     time.Time // when the on-disk snapshot was taken; zero when none
}

// Meta returns the instance's identity record.
func (l *Log) Meta() Meta { return l.meta }

// Seq returns the seq of the last op appended or replayed.
func (l *Log) Seq() int64 { return l.seq }

// OpsSinceSnapshot returns how many ops the on-disk snapshot is behind —
// the service's trigger for WriteSnapshot (-snapshot-every).
func (l *Log) OpsSinceSnapshot() int { return l.opsSince }

// SnapshotSeq returns the op seq the on-disk snapshot covers (0 when the
// instance has never been snapshotted).
func (l *Log) SnapshotSeq() int64 { return l.snapSeq }

// BytesSinceSnapshot returns how many ops.jsonl bytes lie past the
// snapshot's coverage — the data a restart would replay op by op.
func (l *Log) BytesSinceSnapshot() int64 { return l.bytesSince }

// SnapshotAt returns when the on-disk snapshot was taken; the zero time
// means the instance has never been snapshotted.
func (l *Log) SnapshotAt() time.Time { return l.snapAt }

// Append assigns the next seq to op and writes it as one JSONL line in a
// single Write call (so a hard kill can only tear the final line, which
// Load detects and drops), then fsyncs — an acknowledged op survives an OS
// crash, not just a killed process. Call it before applying the op in
// memory: write-ahead order means a crash never leaves an
// applied-but-unlogged op.
func (l *Log) Append(op Op) (int64, error) {
	op.Seq = l.seq + 1
	b, err := json.Marshal(op)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	if _, err := l.f.Write(append(b, '\n')); err != nil {
		return 0, fmt.Errorf("store: append op %d: %w", op.Seq, err)
	}
	if err := l.f.Sync(); err != nil {
		return 0, fmt.Errorf("store: sync op %d: %w", op.Seq, err)
	}
	l.seq = op.Seq
	l.opsSince++
	l.bytesSince += int64(len(b)) + 1
	return op.Seq, nil
}

// WriteSnapshot archives arr's current state (which must reflect every op
// appended so far) as an insertion-ordered session covering Seq, carrying
// the caller's pending dirty marks (dirtyEvents/dirtyUsers, ascending) so a
// restart's next scope=dirty rebalance still sees deltas the snapshot
// folded away. The write is atomic (temp file, fsync, rename, directory
// sync): a crash mid-snapshot leaves the previous snapshot intact. A
// recorder on ctx receives one instance/snapshot span.
func (l *Log) WriteSnapshot(ctx context.Context, arr *core.Arranger, dirtyEvents, dirtyUsers []int) error {
	start := time.Now()
	sp := obs.StartSpan(ctx, "instance/snapshot").
		Annotate("id", l.meta.ID).Annotate("seq", l.seq)
	defer sp.End()
	in, m, err := arr.Snapshot()
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	tmp := filepath.Join(l.dir, snapshotFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	meta := encoding.SessionMeta{
		Algorithm:   "arranger",
		CreatedAt:   time.Now().UTC(),
		Seq:         l.seq,
		DirtyEvents: dirtyEvents,
		DirtyUsers:  dirtyUsers,
	}
	err = encoding.EncodeSessionOrdered(f, in, m, meta, l.meta.Sim, l.meta.Dim, l.meta.MaxT)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapshotFile)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	l.snapSeq = l.seq
	l.opsSince = 0
	l.bytesSince = 0
	l.snapAt = meta.CreatedAt
	snapshotsTotal.Inc()
	snapshotSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// syncDir fsyncs a directory so a just-renamed file inside it survives an
// OS crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close releases the log's file handle.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
