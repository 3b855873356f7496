package store

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/obs"
)

// State is a replayed instance: the reconstructed arranger plus the replay
// bookkeeping the service needs to resume exactly where the dead process
// stopped — including the dirty marks accumulated since the last rebalance,
// so the next scoped rebalance still re-solves precisely the components the
// pre-crash deltas touched.
type State struct {
	Arranger *core.Arranger
	Meta     Meta

	// Seq is the last op seq on disk; SnapshotSeq is how far the snapshot
	// reached (0 when replay started from an empty arranger).
	Seq         int64
	SnapshotSeq int64
	// ReplayedOps counts the ops applied from the log (those past the
	// snapshot).
	ReplayedOps int

	// DirtyEvents / DirtyUsers are the parent node ids touched by deltas
	// since the last rebalance op, ascending.
	DirtyEvents []int
	DirtyUsers  []int

	// OpCounts tallies every op line in ops.jsonl by kind — the log is
	// never rewritten, so this is the instance's lifetime delta history,
	// including ops already folded into the snapshot.
	OpCounts map[string]int64
	// BytesSinceSnapshot is how much of ops.jsonl lies past the snapshot's
	// coverage; SnapshotAt is when that snapshot was taken (zero when the
	// instance has never been snapshotted).
	BytesSinceSnapshot int64
	SnapshotAt         time.Time
}

// LoadDir replays one instance directory read-only: snapshot (if present)
// plus every logged op past it. A torn final log line is skipped with a
// warning but the file is left untouched — this is the offline debugging
// entry (geacc-solve -replay). A recorder on ctx receives one
// instance/replay span.
func LoadDir(ctx context.Context, dir string) (*State, error) {
	st, _, err := loadDir(ctx, dir, false)
	return st, err
}

// Load replays the named instance and opens its log for appending, ready
// for live deltas. A torn final log line is truncated away first, so
// subsequent appends start on a clean line boundary. The replay counters
// are the log's: Seq, SnapshotSeq, and OpsSinceSnapshot (the ops replayed).
func (s *Store) Load(ctx context.Context, id string) (*Instance, error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("store: invalid instance id %q", id)
	}
	dir := s.InstanceDir(id)
	st, inst, err := loadDir(ctx, dir, true)
	if err != nil {
		return nil, err
	}
	f, size, err := openOps(dir)
	if err != nil {
		return nil, err
	}
	inst.Log = &Log{
		dir:        dir,
		meta:       st.Meta,
		f:          f,
		size:       size,
		seq:        st.Seq,
		snapSeq:    st.SnapshotSeq,
		opsSince:   st.ReplayedOps,
		bytesSince: st.BytesSinceSnapshot,
		snapAt:     st.SnapshotAt,
	}
	return inst, nil
}

func loadDir(ctx context.Context, dir string, repair bool) (*State, *Instance, error) {
	start := time.Now()
	sp := obs.StartSpan(ctx, "instance/replay").Annotate("dir", dir)
	defer sp.End()

	meta, err := readMeta(dir)
	if err != nil {
		return nil, nil, err
	}
	if err := meta.Validate(); err != nil {
		return nil, nil, fmt.Errorf("store: %s: %w", dir, err)
	}
	st := &State{Meta: meta}

	// Start point: the snapshot when one exists, an empty arranger otherwise.
	// The snapshot's dirty marks seed the replay's: they are the marks of
	// deltas the snapshot already folded away.
	inst := NewInstance(meta, nil, nil)
	if sf, err := os.Open(filepath.Join(dir, snapshotFile)); err == nil {
		in, m, smeta, derr := encoding.DecodeSession(sf)
		sf.Close()
		if derr != nil {
			return nil, nil, fmt.Errorf("store: snapshot: %w", derr)
		}
		inst.Arr, derr = core.RestoreArranger(in, m)
		if derr != nil {
			return nil, nil, fmt.Errorf("store: snapshot: %w", derr)
		}
		st.SnapshotSeq = smeta.Seq
		st.Seq = smeta.Seq
		st.SnapshotAt = smeta.CreatedAt
		for _, v := range smeta.DirtyEvents {
			inst.dirtyE[v] = true
		}
		for _, u := range smeta.DirtyUsers {
			inst.dirtyU[u] = true
		}
	} else {
		f, ferr := meta.SimInfo().Func()
		if ferr != nil {
			return nil, nil, fmt.Errorf("store: %w", ferr)
		}
		inst.Arr, ferr = core.NewArranger(f)
		if ferr != nil {
			return nil, nil, fmt.Errorf("store: %w", ferr)
		}
	}

	if err := replayOpsFile(ctx, dir, st, inst, repair); err != nil {
		return nil, nil, err
	}
	st.Arranger = inst.Arr
	st.DirtyEvents, st.DirtyUsers = inst.Dirty()
	st.OpCounts = inst.opCounts

	replayOps.Add(int64(st.ReplayedOps))
	replaySeconds.Observe(time.Since(start).Seconds())
	sp.Annotate("seq", st.Seq).
		Annotate("snapshot_seq", st.SnapshotSeq).
		Annotate("replayed_ops", st.ReplayedOps)
	return st, inst, nil
}

// replayOpsFile scans ops.jsonl, counting every op and running each one
// with seq > the snapshot seq through the same Check and apply step a live
// delta takes. A parse failure with nothing but whitespace after it is a
// torn tail (the hard-kill signature): it is dropped — and, with repair,
// truncated off the file. A parse failure with valid data after it is
// corruption and fails the load, as does an op that fails Check or apply.
func replayOpsFile(ctx context.Context, dir string, st *State, inst *Instance, repair bool) error {
	path := filepath.Join(dir, opsFile)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var offset, tornAt int64 = 0, -1
	for {
		line, rerr := r.ReadBytes('\n')
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			if tornAt >= 0 {
				return fmt.Errorf("store: %s: corrupt op line at byte %d (valid data follows it)", path, tornAt)
			}
			var op Op
			if uerr := json.Unmarshal(trimmed, &op); uerr != nil {
				tornAt = offset
			} else if op.Seq <= st.SnapshotSeq {
				inst.opCounts[op.Kind]++ // already folded into the snapshot
			} else {
				st.BytesSinceSnapshot += int64(len(line))
				if op.Seq != st.Seq+1 {
					return fmt.Errorf("store: %s: op seq %d after %d (log gap)", path, op.Seq, st.Seq)
				}
				if err := inst.Check(op); err != nil {
					return fmt.Errorf("store: %s: op %d: %w", path, op.Seq, err)
				}
				if err := inst.apply(op); err != nil {
					return fmt.Errorf("store: replay op %d: %w", op.Seq, err)
				}
				st.Seq = op.Seq
				st.ReplayedOps++
			}
		}
		offset += int64(len(line))
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return fmt.Errorf("store: %w", rerr)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if tornAt >= 0 {
		slog.Warn("store: dropping torn final op line (hard kill mid-append)",
			"path", path, "offset", tornAt)
		if repair {
			if err := os.Truncate(path, tornAt); err != nil {
				return fmt.Errorf("store: truncating torn tail: %w", err)
			}
		}
	}
	return nil
}
