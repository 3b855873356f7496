package store

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
)

// fuzzMeta is the instance every fuzzed ops.jsonl is replayed under.
const fuzzMeta = `{"id":"f","sim":"euclidean","dim":2,"max_t":10,"created_at":"2026-01-01T00:00:00Z"}`

// writeInstanceDir lays out an instance directory holding fuzzMeta and the
// given ops.jsonl bytes, and returns it.
func writeInstanceDir(t testing.TB, ops []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, metaFile), []byte(fuzzMeta), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, opsFile), ops, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// validOps exercises every op kind on a 2-dim euclidean instance.
const validOps = `{"seq":1,"op":"add_event","attrs":[0,0],"cap":2}
{"seq":2,"op":"add_user","attrs":[0,1],"cap":1}
{"seq":3,"op":"add_event","attrs":[1,0],"cap":1,"conflicts":[0]}
{"seq":4,"op":"add_user","attrs":[1,1],"cap":2}
{"seq":5,"op":"cancel_event","event":1}
{"seq":6,"op":"remove_user","user":0}
{"seq":7,"op":"rebalance"}
`

// repeatedPairOps logs a rebalance whose adopted matching lists (0, 0) twice.
const repeatedPairOps = `{"seq":1,"op":"add_event","attrs":[0,0],"cap":2}
{"seq":2,"op":"add_user","attrs":[0,1],"cap":2}
{"seq":3,"op":"rebalance","adopted":true,"pairs":[{"v":0,"u":0,"sim":0.9},{"v":0,"u":0,"sim":0.9}]}
`

// FuzzReplayOps feeds arbitrary ops.jsonl bytes to replay: LoadDir must
// return an error or a feasible arrangement, and never panic.
func FuzzReplayOps(f *testing.F) {
	for _, seed := range []string{
		validOps,
		validOps + `{"seq":8,"op":"add_u`, // torn tail
		`{"seq":1,"op":"add_user","attrs":[0,1],"cap":1}` + "\n" +
			`{"seq":3,"op":"add_user","attrs":[0,1],"cap":1}` + "\n", // seq gap
		`{"seq":1,"op":"add_user","attrs":[1],"cap":1}` + "\n",                    // wrong attrs length
		`{"seq":1,"op":"add_event","attrs":[0,0],"cap":1,"conflicts":[3]}` + "\n", // conflict out of range
		`{"seq":1,"op":"cancel_event","event":0}` + "\n",                          // cancel target out of range
		repeatedPairOps,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		st, err := LoadDir(context.Background(), writeInstanceDir(t, ops))
		if err != nil {
			return
		}
		in, m, err := st.Arranger.Snapshot()
		if err != nil {
			t.Fatalf("replayed arranger has no snapshot: %v", err)
		}
		if err := core.Validate(in, m); err != nil {
			t.Fatalf("replay produced an infeasible arrangement: %v", err)
		}
	})
}
