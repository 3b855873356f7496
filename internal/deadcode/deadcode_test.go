// Package deadcode holds the reachability gate: every package-level func,
// method, type, var and const in the main module's non-test files must be
// reachable from a binary, an example, the benchmark module or the geacc
// facade's exported API, or be named in allowlist.txt with a reason.
//
// The walk starts from the main packages, every declaration of the
// benchmark module, the facade's exported names (and the exported methods
// of its exported types), init functions and blank names. A declaration
// reaches what its source names. A method of a live type is also live when
// the type satisfies an interface the program uses: any interface of the
// standard library, or a program interface that is itself reached. Struct
// fields are not checked.
//
// `make deadcode` runs TestReachability with -v, which logs every name the
// program does not reach together with its allowlist reason.
package deadcode

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestReachability(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllow("allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	res, err := check(config{
		Dir:   root,
		Extra: []string{filepath.Join(root, "benchmark")},
		Allow: allow,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Unreached {
		if f.Reason != "" {
			t.Logf("%s: %s", f.Name, f.Reason)
		}
	}
	for _, msg := range res.Failures() {
		t.Error(msg)
	}
}

// TestCheckerFixture runs the checker on a four-name fixture module: a dead
// func and a func only a _test.go file calls are flagged; a String method
// that fmt reaches through fmt.Stringer and a func only init calls are not.
func TestCheckerFixture(t *testing.T) {
	dir, err := filepath.Abs("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	res, err := check(config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range res.Unreached {
		got = append(got, f.Name)
	}
	if want := []string{"lib.Dead", "lib.TestOnly"}; !reflect.DeepEqual(got, want) {
		t.Errorf("unreached = %v, want %v", got, want)
	}
	if n := len(res.Failures()); n != 2 {
		t.Errorf("%d failures, want 2: %v", n, res.Failures())
	}

	res, err = check(config{Dir: dir, Allow: map[string]string{
		"lib.Dead":     "kept on purpose",
		"lib.initOnly": "stale: init reaches it",
		"lib.Missing":  "names nothing",
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib/lib.go:12:6: lib.TestOnly is reached by no binary, example, benchmark or facade API",
		"allowlist entry lib.Missing names no declaration",
		"allowlist entry lib.initOnly is stale: the program reaches it",
	}
	if got := res.Failures(); !reflect.DeepEqual(got, want) {
		t.Errorf("failures with an allowlist = %q, want %q", got, want)
	}
}
