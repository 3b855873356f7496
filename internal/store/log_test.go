package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/encoding"
)

// flakyFile is a logFile whose next Write or Sync fails once (a Write
// failure still writes half the line first, as a full disk can), and whose
// Truncate can be made to fail for good.
type flakyFile struct {
	logFile
	failWrite, failSync, failTruncate bool
}

var errInjected = errors.New("injected failure")

func (f *flakyFile) Write(b []byte) (int, error) {
	if f.failWrite {
		f.failWrite = false
		n, _ := f.logFile.Write(b[:len(b)/2])
		return n, errInjected
	}
	return f.logFile.Write(b)
}

func (f *flakyFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errInjected
	}
	return f.logFile.Sync()
}

func (f *flakyFile) Truncate(size int64) error {
	if f.failTruncate {
		return errInjected
	}
	return f.logFile.Truncate(size)
}

// TestFailedAppendLeavesLogAsItWas: a failed Write (a partial line) or a
// failed Sync (a whole line the caller was told failed) is truncated away,
// so the next append takes the same seq on a clean boundary and Load
// replays exactly the ops that succeeded.
func TestFailedAppendLeavesLogAsItWas(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func(*flakyFile)
	}{
		{"sync", func(f *flakyFile) { f.failSync = true }},
		{"write", func(f *flakyFile) { f.failWrite = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			l, err := st.Create(Meta{ID: "a", Sim: encoding.SimEuclidean, Dim: 2, MaxT: 10})
			if err != nil {
				t.Fatal(err)
			}
			ff := &flakyFile{logFile: l.f}
			l.f = ff
			tc.fail(ff)
			if _, err := l.Append(Op{Kind: OpAddUser, Attrs: []float64{9, 9}, Cap: 3}); !errors.Is(err, errInjected) {
				t.Fatalf("failed append returned %v", err)
			}
			seq, err := l.Append(Op{Kind: OpAddUser, Attrs: []float64{1, 2}, Cap: 1})
			if err != nil || seq != 1 {
				t.Fatalf("append after the failure: seq %d, err %v", seq, err)
			}
			l.Close()
			ops, err := os.ReadFile(filepath.Join(st.InstanceDir("a"), opsFile))
			if err != nil {
				t.Fatal(err)
			}
			if want := `{"seq":1,"op":"add_user","attrs":[1,2],"cap":1}` + "\n"; string(ops) != want {
				t.Fatalf("ops.jsonl holds %q, want %q", ops, want)
			}
			inst, err := st.Load(context.Background(), "a")
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Log.Close()
			if inst.Log.Seq() != 1 || inst.Arr.NumUsers() != 1 || inst.Arr.Users()[0].Cap != 1 {
				t.Fatalf("replayed seq %d with %d users", inst.Log.Seq(), inst.Arr.NumUsers())
			}
		})
	}
}

// TestAppendRefusedAfterFailedUndo: when the truncate that undoes a failed
// append fails too, the log may end in a line nobody acknowledged, so every
// later append is refused.
func TestAppendRefusedAfterFailedUndo(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, err := st.Create(Meta{ID: "a", Sim: encoding.SimEuclidean, Dim: 2, MaxT: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ff := &flakyFile{logFile: l.f, failSync: true, failTruncate: true}
	l.f = ff
	if _, err := l.Append(Op{Kind: OpAddUser, Attrs: []float64{1, 2}, Cap: 1}); err == nil {
		t.Fatal("append with a failing sync succeeded")
	}
	if _, err := l.Append(Op{Kind: OpAddUser, Attrs: []float64{1, 2}, Cap: 1}); err == nil {
		t.Fatal("append after a failed undo succeeded")
	}
	if l.Seq() != 0 {
		t.Fatalf("seq advanced to %d", l.Seq())
	}
}

// FuzzOpLineMatchesStdlib: appendOp must write json.Marshal's bytes for
// ops of every kind (any kind string, attribute bits, ids, caps and pairs),
// also when a rebalance hands over core.Assignments instead of Pairs, and
// fail with json.Marshal's error on NaN and ±Inf.
func FuzzOpLineMatchesStdlib(f *testing.F) {
	f.Add("add_event", int64(1), 2, math.Copysign(0, -1), 1e-7, []byte{0, 1, 2}, uint8(0xff))
	f.Add("add_user", int64(7), 0, 1e21, -1e21, []byte{}, uint8(1))
	f.Add("rebalance", int64(1<<40), 0, 0.5, 5e-324, []byte{3, 4, 5, 6}, uint8(0x30))
	f.Add("cancel_event", int64(0), -3, math.NaN(), 1.0, []byte{9}, uint8(0x04))
	f.Add("remove_user<&> ", int64(-1), 1, math.Inf(1), math.Inf(-1), []byte{1, 1}, uint8(0x0b))
	f.Fuzz(func(t *testing.T, kind string, seq int64, capacity int, a, b float64, ids []byte, flags uint8) {
		op := Op{Seq: seq, Kind: kind, Cap: capacity, Adopted: flags&0x20 != 0}
		if flags&1 != 0 {
			op.Attrs = []float64{a}
		}
		if flags&2 != 0 {
			op.Attrs = append(op.Attrs, b)
		}
		if flags&4 != 0 {
			ev := int(seq)
			op.Event = &ev
		}
		if flags&8 != 0 {
			u := -capacity
			op.User = &u
		}
		if flags&0x40 != 0 {
			op.Attrs = []float64{} // empty, not nil: omitted all the same
		}
		for i, id := range ids {
			if flags&0x80 != 0 {
				op.Conflicts = append(op.Conflicts, int(id)-128)
			}
			if flags&0x10 != 0 {
				s := a
				if i%2 == 1 {
					s = b
				}
				op.Pairs = append(op.Pairs, encoding.PairJSON{V: int(id), U: i, Sim: s})
			}
		}
		want, werr := json.Marshal(op)
		got, gerr := appendOp(nil, op)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("errors differ: json.Marshal %v, appendOp %v", werr, gerr)
		}
		if werr == nil && !bytes.Equal(got, want) {
			t.Fatalf("appendOp wrote\n%s\njson.Marshal wrote\n%s", got, want)
		}
		if len(op.Pairs) == 0 {
			return
		}
		viaArranger := op
		viaArranger.Pairs = nil
		for _, p := range op.Pairs {
			viaArranger.assignments = append(viaArranger.assignments, core.Assignment(p))
		}
		got, gerr = appendOp(nil, viaArranger)
		if (werr == nil) != (gerr == nil) || werr == nil && !bytes.Equal(got, want) {
			t.Fatalf("assignments wrote %s (%v), json.Marshal of Pairs %s (%v)", got, gerr, want, werr)
		}
	})
}
