package store

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/encoding"
)

func TestValidID(t *testing.T) {
	good := []string{"a", "prod", "shard-1", "A.b_c-9", "0"}
	bad := []string{"", ".", "..", ".hidden", "-x", "_x", "a/b", "a b", "a\x00b",
		"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}
	for _, id := range good {
		if !ValidID(id) {
			t.Errorf("ValidID(%q) = false, want true", id)
		}
	}
	for _, id := range bad {
		if ValidID(id) {
			t.Errorf("ValidID(%q) = true, want false", id)
		}
	}
}

func TestCreateRejectsDuplicatesAndMatrix(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{ID: "a", Sim: encoding.SimEuclidean, Dim: 2, MaxT: 10}
	l, err := st.Create(meta)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := st.Create(meta); err == nil {
		t.Fatal("second Create of the same id should fail")
	}
	if _, err := st.Create(Meta{ID: "m", Sim: encoding.SimMatrix}); err == nil {
		t.Fatal("matrix instances cannot grow online; Create should reject them")
	}
	if _, err := st.Create(Meta{ID: "bad/id", Sim: encoding.SimEuclidean, Dim: 2, MaxT: 10}); err == nil {
		t.Fatal("invalid id should be rejected")
	}
	// Without a pinned dimension, mixed-length arrivals would reach the
	// similarity kernel — which panics — so dim is required for every kind,
	// cosine included, and max_t for the distance-normalized kinds.
	if _, err := st.Create(Meta{ID: "c0", Sim: encoding.SimCosine}); err == nil {
		t.Fatal("cosine without dim should be rejected")
	}
	if _, err := st.Create(Meta{ID: "e0", Sim: encoding.SimEuclidean, Dim: 2}); err == nil {
		t.Fatal("euclidean without max_t should be rejected")
	}
}

// driveRandomOps applies n random deltas through the write-ahead path
// (append, then apply), snapshotting roughly every snapEvery ops — exactly
// the server's discipline, so replay must land on the same state. It
// mirrors the service's dirty tracking into dirtyE/dirtyU (and hands the
// marks to WriteSnapshot), so callers can assert replay recovers them too.
func driveRandomOps(t *testing.T, arr *core.Arranger, l *Log, rng *rand.Rand, n, snapEvery int, dirtyE, dirtyU map[int]bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		var op Op
		switch r := rng.Intn(10); {
		case r < 3: // add event
			op = Op{Kind: OpAddEvent,
				Attrs: []float64{rng.Float64() * 10, rng.Float64() * 10},
				Cap:   rng.Intn(4)}
			// Conflict with up to two random existing events.
			for k := 0; k < rng.Intn(3) && arr.NumEvents() > 0; k++ {
				op.Conflicts = append(op.Conflicts, rng.Intn(arr.NumEvents()))
			}
			dirtyE[arr.NumEvents()] = true
		case r < 7: // add user
			op = Op{Kind: OpAddUser,
				Attrs: []float64{rng.Float64() * 10, rng.Float64() * 10},
				Cap:   1 + rng.Intn(2)}
			dirtyU[arr.NumUsers()] = true
		case r < 8 && arr.NumEvents() > 0: // cancel event
			v := rng.Intn(arr.NumEvents())
			op = Op{Kind: OpCancelEvent, Event: &v}
			dirtyE[v] = true
		case r < 9 && arr.NumUsers() > 0: // remove user
			u := rng.Intn(arr.NumUsers())
			op = Op{Kind: OpRemoveUser, User: &u}
			dirtyU[u] = true
		default: // rebalance
			res, err := decomp.RebalanceScoped(context.Background(), arr, "greedy",
				nil, nil, true, decomp.Options{Seed: 7})
			if err != nil {
				t.Fatalf("op %d: rebalance: %v", i, err)
			}
			op = Op{Kind: OpRebalance, Adopted: res.Adopted}
			if res.Adopted {
				for _, p := range arr.Matching().Pairs() {
					op.Pairs = append(op.Pairs, encoding.PairJSON{V: p.V, U: p.U, Sim: p.Sim})
				}
			}
			if _, err := l.Append(op); err != nil {
				t.Fatalf("op %d: append: %v", i, err)
			}
			clear(dirtyE)
			clear(dirtyU)
			continue // rebalance already mutated arr
		}
		if _, err := l.Append(op); err != nil {
			t.Fatalf("op %d: append: %v", i, err)
		}
		if err := Apply(arr, op); err != nil {
			t.Fatalf("op %d: apply %s: %v", i, op.Kind, err)
		}
		if snapEvery > 0 && l.OpsSinceSnapshot() >= snapEvery {
			if err := l.WriteSnapshot(context.Background(), arr, sortedKeys(dirtyE), sortedKeys(dirtyU)); err != nil {
				t.Fatalf("op %d: snapshot: %v", i, err)
			}
		}
	}
}

// sameArrangement asserts two arrangers hold bit-identical state: same
// shape, same pairs in the same insertion order, same MaxSum float bits.
func sameArrangement(t *testing.T, want, got *core.Arranger) {
	t.Helper()
	if want.NumEvents() != got.NumEvents() || want.NumUsers() != got.NumUsers() {
		t.Fatalf("shape mismatch: want %dx%d, got %dx%d",
			want.NumEvents(), want.NumUsers(), got.NumEvents(), got.NumUsers())
	}
	wp, gp := want.Matching().Pairs(), got.Matching().Pairs()
	if len(wp) != len(gp) {
		t.Fatalf("pair count mismatch: want %d, got %d", len(wp), len(gp))
	}
	for i := range wp {
		if wp[i] != gp[i] {
			t.Fatalf("pair %d mismatch: want %+v, got %+v", i, wp[i], gp[i])
		}
	}
	if want.MaxSum() != got.MaxSum() {
		t.Fatalf("MaxSum mismatch: want %x, got %x", want.MaxSum(), got.MaxSum())
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameDirty asserts a replayed Instance recovered exactly the dirty marks the
// live instance held.
func sameDirty(t *testing.T, inst *Instance, dirtyE, dirtyU map[int]bool) {
	t.Helper()
	events, users := inst.Dirty()
	if !equalInts(events, sortedKeys(dirtyE)) || !equalInts(users, sortedKeys(dirtyU)) {
		t.Fatalf("dirty marks not recovered: got events %v users %v, want events %v users %v",
			events, users, sortedKeys(dirtyE), sortedKeys(dirtyU))
	}
}

// TestReplayReproducesArrangement is the crash-recovery property test:
// whatever random interleaving of arrivals, cancellations, and rebalances
// an instance lived through — with snapshots landing at arbitrary points —
// a cold Load reproduces the in-memory arrangement bit-for-bit, including
// the float accumulation order of MaxSum.
func TestReplayReproducesArrangement(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			meta := Meta{ID: "p", Sim: encoding.SimEuclidean, Dim: 2, MaxT: 20}
			l, err := st.Create(meta)
			if err != nil {
				t.Fatal(err)
			}
			f, _ := meta.SimInfo().Func()
			arr, err := core.NewArranger(f)
			if err != nil {
				t.Fatal(err)
			}
			// snapEvery 0 on even trials exercises pure-log replay;
			// odd trials mix snapshots in.
			snapEvery := 0
			if trial%2 == 1 {
				snapEvery = 5 + trial
			}
			dirtyE, dirtyU := map[int]bool{}, map[int]bool{}
			driveRandomOps(t, arr, l, rng, 120, snapEvery, dirtyE, dirtyU)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			inst2, err := st.Load(context.Background(), "p")
			if err != nil {
				t.Fatal(err)
			}
			l2 := inst2.Log
			defer l2.Close()
			sameArrangement(t, arr, inst2.Arr)
			sameDirty(t, inst2, dirtyE, dirtyU)
			if l2.Seq() == 0 {
				t.Fatal("replayed seq should not be zero after 120 ops")
			}

			// Keep going on the replayed instance and replay again: the log
			// must stay appendable after recovery.
			driveRandomOps(t, inst2.Arr, l2, rng, 40, snapEvery, dirtyE, dirtyU)
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			inst3, err := st.Load(context.Background(), "p")
			if err != nil {
				t.Fatal(err)
			}
			defer inst3.Log.Close()
			sameArrangement(t, inst2.Arr, inst3.Arr)
			sameDirty(t, inst3, dirtyE, dirtyU)
		})
	}
}

// TestReplayTruncatesTornTail simulates a kill -9 mid-append: the final log
// line is half-written. Load must drop it, truncate the file, and replay
// the prefix.
func TestReplayTruncatesTornTail(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{ID: "torn", Sim: encoding.SimEuclidean, Dim: 2, MaxT: 20}
	l, err := st.Create(meta)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := meta.SimInfo().Func()
	arr, err := core.NewArranger(f)
	if err != nil {
		t.Fatal(err)
	}
	driveRandomOps(t, arr, l, rand.New(rand.NewSource(9)), 30, 0, map[int]bool{}, map[int]bool{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(st.InstanceDir("torn"), opsFile)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, whole...), []byte(`{"seq":9999,"op":"add_u`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	inst2, err := st.Load(context.Background(), "torn")
	if err != nil {
		t.Fatalf("Load with torn tail: %v", err)
	}
	l2 := inst2.Log
	defer l2.Close()
	if l2.OpsSinceSnapshot() != 30 {
		t.Fatalf("replayed %d ops, want 30 (torn line dropped)", l2.OpsSinceSnapshot())
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(whole) {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", len(after), len(whole))
	}
	// And the log stays appendable on a clean boundary.
	if _, err := l2.Append(Op{Kind: OpAddUser, Attrs: []float64{1, 2}, Cap: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestReplayRejectsMidFileCorruption: garbage in the middle of the log is
// not a torn tail and must fail the load, not silently skip ops.
func TestReplayRejectsMidFileCorruption(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{ID: "corrupt", Sim: encoding.SimEuclidean, Dim: 2, MaxT: 20}
	l, err := st.Create(meta)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(Op{Kind: OpAddUser, Attrs: []float64{1, 2}, Cap: 1}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := filepath.Join(st.InstanceDir("corrupt"), opsFile)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Mangle the second line but keep the third intact.
	lines := []byte("{\"garbage\n")
	mangled := append(append([]byte{}, whole[:len(whole)/3]...), lines...)
	mangled = append(mangled, whole[2*len(whole)/3:]...)
	if err := os.WriteFile(path, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(context.Background(), "corrupt"); err == nil {
		t.Fatal("mid-file corruption should fail the load")
	}
}

// TestReplayRejectsSeqGap: a missing op (seq jump) means the log cannot
// reproduce the arrangement; replay must refuse.
func TestReplayRejectsSeqGap(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{ID: "gap", Sim: encoding.SimEuclidean, Dim: 2, MaxT: 20}
	l, err := st.Create(meta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Op{Kind: OpAddUser, Attrs: []float64{1, 2}, Cap: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(st.InstanceDir("gap"), opsFile)
	af, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := af.WriteString(`{"seq":5,"op":"add_user","attrs":[1,2],"cap":1}` + "\n"); err != nil {
		t.Fatal(err)
	}
	af.Close()
	if _, err := st.Load(context.Background(), "gap"); err == nil {
		t.Fatal("seq gap should fail the load")
	}
}

// TestLoadDirDoesNotRepair: the offline entry point must leave a torn file
// byte-identical (it is an audit tool, not a recovery tool).
func TestLoadDirDoesNotRepair(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{ID: "audit", Sim: encoding.SimEuclidean, Dim: 2, MaxT: 20}
	l, err := st.Create(meta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Op{Kind: OpAddUser, Attrs: []float64{1, 2}, Cap: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(st.InstanceDir("audit"), opsFile)
	af, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	af.WriteString(`{"seq":2,"op":"add`)
	af.Close()
	before, _ := os.ReadFile(path)

	state, err := LoadDir(context.Background(), st.InstanceDir("audit"))
	if err != nil {
		t.Fatal(err)
	}
	if state.ReplayedOps != 1 {
		t.Fatalf("replayed %d ops, want 1", state.ReplayedOps)
	}
	after, _ := os.ReadFile(path)
	if len(after) != len(before) {
		t.Fatal("LoadDir modified the log file")
	}
}

// TestSnapshotPreservesDirtyMarks is the regression test for marks lost to
// snapshot folding: a delta's op is absorbed into a snapshot before any
// rebalance, the process dies, and replay must still report the delta's
// dirty mark (from the snapshot meta — the op itself is skipped).
func TestSnapshotPreservesDirtyMarks(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{ID: "dirty", Sim: encoding.SimEuclidean, Dim: 2, MaxT: 10}
	l, err := st.Create(meta)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := meta.SimInfo().Func()
	arr, err := core.NewArranger(f)
	if err != nil {
		t.Fatal(err)
	}
	op := Op{Kind: OpAddEvent, Attrs: []float64{1, 1}, Cap: 1}
	if _, err := l.Append(op); err != nil {
		t.Fatal(err)
	}
	if err := Apply(arr, op); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(context.Background(), arr, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	inst2, err := st.Load(context.Background(), "dirty")
	if err != nil {
		t.Fatal(err)
	}
	defer inst2.Log.Close()
	if n := inst2.Log.OpsSinceSnapshot(); n != 0 {
		t.Fatalf("replayed %d ops, want 0 (the op was folded into the snapshot)", n)
	}
	if events, users := inst2.Dirty(); !equalInts(events, []int{0}) || len(users) != 0 {
		t.Fatalf("dirty marks lost across snapshot: events %v, users %v", events, users)
	}
}

// TestReplayRejectsWrongDimension: an op whose attribute vector disagrees
// with the instance's dim (only possible via a corrupted or hand-edited
// log) must fail the load with an error, not panic inside the similarity
// kernel and crash-loop the server on every boot.
func TestReplayRejectsWrongDimension(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{ID: "wrongdim", Sim: encoding.SimCosine, Dim: 2}
	l, err := st.Create(meta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Op{Kind: OpAddUser, Attrs: []float64{1, 2}, Cap: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(st.InstanceDir("wrongdim"), opsFile)
	af, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := af.WriteString(`{"seq":2,"op":"add_user","attrs":[1],"cap":1}` + "\n"); err != nil {
		t.Fatal(err)
	}
	af.Close()
	if _, err := st.Load(context.Background(), "wrongdim"); err == nil {
		t.Fatal("mismatched attribute dimension should fail the load")
	}
}

// TestReplayRejectsRepeatedRebalancePair: a logged rebalance whose
// matching lists a pair twice must fail both replay entry points with an
// error naming the op, not panic inside core.Matching.Add.
func TestReplayRejectsRepeatedRebalancePair(t *testing.T) {
	dir := writeInstanceDir(t, []byte(repeatedPairOps))
	if _, err := LoadDir(context.Background(), dir); err == nil || !strings.Contains(err.Error(), "op 3") {
		t.Fatalf("LoadDir: err = %v, want an error naming op 3", err)
	}
	st, err := Open(filepath.Dir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(context.Background(), filepath.Base(dir)); err == nil || !strings.Contains(err.Error(), "op 3") {
		t.Fatalf("Load: err = %v, want an error naming op 3", err)
	}
}

// TestListAndDelete covers the directory lifecycle.
func TestListAndDelete(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"b", "a", "c"} {
		l, err := st.Create(Meta{ID: id, Sim: encoding.SimCosine, Dim: 2})
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != "a" || ids[1] != "b" || ids[2] != "c" {
		t.Fatalf("List = %v, want [a b c]", ids)
	}
	if err := st.Delete("b"); err != nil {
		t.Fatal(err)
	}
	ids, _ = st.List()
	if len(ids) != 2 {
		t.Fatalf("after Delete, List = %v", ids)
	}
}
