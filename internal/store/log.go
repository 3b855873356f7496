package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
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
// Pairs, the full replacement matching in its insertion order. Its log line
// is json.Marshal's encoding of it, written in one pass by appendOp.
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

	// assignments stands in for Pairs on the way to the log: an adopted
	// rebalance hands over the arranger's own pairs, which appendOp writes
	// exactly as it writes Pairs, without a copy.
	assignments []core.Assignment
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
		m, err := encoding.NewMatching(op.Pairs, arr.NumEvents(), arr.NumUsers())
		if err != nil {
			return err
		}
		_, err = arr.SetMatching(m)
		return err
	}
	return fmt.Errorf("store: unknown op kind %q (seq %d)", op.Kind, op.Seq)
}

// logFile is what a Log needs of its ops.jsonl handle (an *os.File opened
// for appending); tests substitute one whose calls fail.
type logFile interface {
	Write([]byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Log is one instance's open persistence handle: the append end of
// ops.jsonl plus the snapshot bookkeeping. Methods are not safe for
// concurrent use — the service serializes them under its per-instance lock.
type Log struct {
	dir  string
	meta Meta
	f    logFile
	size int64 // ops.jsonl's length: where the next line starts
	// broken is set when a failed append could not be undone: ops.jsonl may
	// end in a line no client was told succeeded, so no later op may follow.
	broken error

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
//
// A failed append leaves the log as it was: the file is truncated back to
// its length before the line, so neither a partial line nor a whole line
// the caller was told failed precedes the next op. If that truncate fails
// too, the log refuses every later append.
func (l *Log) Append(op Op) (int64, error) {
	if l.broken != nil {
		return 0, fmt.Errorf("store: log refuses appends after an append it could not undo: %w", l.broken)
	}
	if l.f == nil {
		return 0, fmt.Errorf("store: append to a closed log")
	}
	op.Seq = l.seq + 1
	b, err := appendOp(nil, op)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	b = append(b, '\n')
	if _, err := l.f.Write(b); err != nil {
		return 0, l.undo(fmt.Errorf("store: append op %d: %w", op.Seq, err))
	}
	if err := l.f.Sync(); err != nil {
		return 0, l.undo(fmt.Errorf("store: sync op %d: %w", op.Seq, err))
	}
	l.seq = op.Seq
	l.size += int64(len(b))
	l.opsSince++
	l.bytesSince += int64(len(b))
	return op.Seq, nil
}

// undo truncates ops.jsonl back to where the failed append started and
// returns err; when the truncate fails the log is marked broken.
func (l *Log) undo(err error) error {
	if terr := l.f.Truncate(l.size); terr != nil {
		l.broken = terr
		return errors.Join(err, fmt.Errorf("store: undoing the append: %w", terr))
	}
	return err
}

// appendOp appends op's log line (without the newline) to b: the bytes
// json.Marshal(op) gives, written in one pass. Floats follow
// encoding.AppendFloat (encoding/json's rule), so NaN and ±Inf fail as they
// do in json.Marshal.
func appendOp(b []byte, op Op) ([]byte, error) {
	var err error
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, op.Seq, 10)
	b = append(b, `,"op":`...)
	b = encoding.AppendString(b, op.Kind)
	if len(op.Attrs) > 0 {
		b = append(b, `,"attrs":[`...)
		for i, x := range op.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = encoding.AppendFloat(b, x); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	if op.Cap != 0 {
		b = append(b, `,"cap":`...)
		b = strconv.AppendInt(b, int64(op.Cap), 10)
	}
	if len(op.Conflicts) > 0 {
		b = append(b, `,"conflicts":[`...)
		for i, c := range op.Conflicts {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(c), 10)
		}
		b = append(b, ']')
	}
	if op.Event != nil {
		b = append(b, `,"event":`...)
		b = strconv.AppendInt(b, int64(*op.Event), 10)
	}
	if op.User != nil {
		b = append(b, `,"user":`...)
		b = strconv.AppendInt(b, int64(*op.User), 10)
	}
	if op.Adopted {
		b = append(b, `,"adopted":true`...)
	}
	if len(op.Pairs) > 0 {
		return appendPairs(b, op.Pairs)
	}
	if len(op.assignments) > 0 {
		return appendPairs(b, op.assignments)
	}
	return append(b, '}'), nil
}

// appendPairs writes the "pairs" field and closes the op object; the
// arranger's pairs and decoded ones share the encoding.PairJSON layout.
func appendPairs[P encoding.PairJSON | core.Assignment](b []byte, pairs []P) ([]byte, error) {
	var err error
	b = append(b, `,"pairs":[`...)
	for i, p := range pairs {
		q := encoding.PairJSON(p)
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"v":`...)
		b = strconv.AppendInt(b, int64(q.V), 10)
		b = append(b, `,"u":`...)
		b = strconv.AppendInt(b, int64(q.U), 10)
		b = append(b, `,"sim":`...)
		if b, err = encoding.AppendFloat(b, q.Sim); err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
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
