package decomp

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/solvecache"
)

func TestRunCachesWhatTheKeyAllows(t *testing.T) {
	in := clustered(t, 8, 40, 2, 3, 2, 2)
	env := Env{Cache: solvecache.New(8), SimID: "clustered"}
	for _, spec := range []Spec{
		{Algo: "greedy", Seed: 1},
		{Algo: "mincostflow", Seed: 1, Decompose: true, Diag: true},
		{Algo: "random-v", Seed: 5},
	} {
		first, err := Run(context.Background(), in, spec, env)
		if err != nil || first.Cached {
			t.Fatalf("%+v: first run cached=%v err=%v", spec, first != nil && first.Cached, err)
		}
		if (first.Diag != nil) != spec.Diag || (first.Decomposition != nil) != spec.Decompose {
			t.Fatalf("%+v: diag %v decomposition %v", spec, first.Diag, first.Decomposition)
		}
		again := spec
		if deterministicAlgos[spec.Algo] {
			again.Seed++ // the seed is not part of a deterministic solver's key
		}
		hit, err := Run(context.Background(), in, again, env)
		if err != nil || !hit.Cached {
			t.Fatalf("%+v: repeat cached=%v err=%v", again, hit != nil && hit.Cached, err)
		}
		if !reflect.DeepEqual(hit.M.Pairs(), first.M.Pairs()) || hit.M.MaxSum() != first.M.MaxSum() ||
			hit.Elapsed != first.Elapsed || hit.Diag != first.Diag {
			t.Fatalf("%+v: hit does not serve the stored result", spec)
		}
		if hit.M == first.M {
			t.Fatalf("%+v: hit shares the caller's matching", spec)
		}
		fresh, err := Run(context.Background(), in, Spec{Algo: spec.Algo, Seed: spec.Seed, Decompose: spec.Decompose, NoCache: true}, env)
		if err != nil || fresh.Cached {
			t.Fatalf("%+v: NoCache run cached=%v err=%v", spec, fresh != nil && fresh.Cached, err)
		}
		if !reflect.DeepEqual(fresh.M.Pairs(), first.M.Pairs()) {
			t.Fatalf("%+v: cached matching differs from a fresh solve", spec)
		}
	}
	if _, err := Run(context.Background(), in, Spec{Algo: "random-v", Seed: 6}, env); err != nil {
		t.Fatal(err)
	}
	if st := env.Cache.Stats(); st.Hits != 3 || st.Misses != 4 {
		t.Fatalf("cache stats %+v, want 3 hits (one per repeat) and 4 misses", st)
	}
}

func TestRunExactGate(t *testing.T) {
	in := clustered(t, 8, 40, 2, 3, 2, 2)
	env := Env{ExactAreaLimit: 50}
	var gerr *ExactGateError
	if _, err := Run(context.Background(), in, Spec{Algo: "exact"}, env); !errors.As(err, &gerr) || gerr.Decomposed {
		t.Fatalf("monolithic exact over the limit: %v", err)
	}
	res, err := Run(context.Background(), in, Spec{Algo: "exact", Decompose: true, Diag: true}, Env{ExactAreaLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if g := res.Diag.ExactGate; g == nil || g.Gated || g.Limit != 1<<20 || g.ComponentArea != int64(res.Decomposition.LargestEvents*res.Decomposition.LargestUsers) {
		t.Fatalf("exact gate %+v", res.Diag.ExactGate)
	}
	if res, err := Run(context.Background(), in, Spec{Algo: "greedy", Diag: true}, env); err != nil || res.Diag.ExactGate != nil {
		t.Fatalf("greedy is not gated: %v", err)
	}
}

func TestRunNodeLimitAndHookAreNotCached(t *testing.T) {
	in := clustered(t, 8, 40, 2, 3, 2, 2)
	env := Env{Cache: solvecache.New(8), SimID: "clustered"}
	res, err := Run(context.Background(), in, Spec{Algo: "exact", NodeLimit: 1}, env)
	if !errors.Is(err, core.ErrNodeLimit) || res == nil || core.Validate(in, res.M) != nil {
		t.Fatalf("node-limited exact: res %v err %v", res, err)
	}
	calls := 0
	env.Solve = func(ctx context.Context, in *core.Instance) (*core.Matching, error) {
		calls++
		return core.GreedyCtx(ctx, in, core.GreedyOptions{})
	}
	for i := 0; i < 2; i++ {
		if _, err := Run(context.Background(), in, Spec{Algo: "greedy"}, env); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 2 || env.Cache.Len() != 0 {
		t.Fatalf("hook ran %d times, %d cached entries; want 2 and 0", calls, env.Cache.Len())
	}
}
