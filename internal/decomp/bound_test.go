package decomp

import (
	"context"
	"math"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/partition"
	"github.com/ebsnlab/geacc/internal/solvecache"
)

var mcflowRunsTotal = obs.Default().Counter("geacc_mcflow_runs_total")

// closeRel reports whether got is within 1e-9 relative of want.
func closeRel(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// boundAfter solves d with opt and returns RelaxedBound over the step's
// bounds, how many min-cost-flow runs the bound itself added, and the
// step's partition stats.
func boundAfter(t *testing.T, d *Decomposition, algo string, opt Options) (float64, int64, *core.PartitionStats) {
	t.Helper()
	st, err := d.solveStep(context.Background(), algo, d.allIDs(), opt)
	if err != nil {
		t.Fatal(err)
	}
	m := d.merge(nil, st.ms)
	if err := core.Validate(d.Parent, m); err != nil {
		t.Fatalf("merged matching infeasible: %v", err)
	}
	runs := mcflowRunsTotal.Value()
	b, err := d.RelaxedBound(context.Background(), st.bounds)
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxSum() > b*(1+1e-9) {
		t.Fatalf("MaxSum %v above the bound %v", m.MaxSum(), b)
	}
	return b, mcflowRunsTotal.Value() - runs, st.partition
}

// TestRelaxedBoundMatchesMonolithic is the additivity property: on clustered
// (many components) and bridged (one giant component) instances, the summed
// per-component bound equals the monolithic Corollary 1 bound to 1e-9
// relative, however the component solves went — cold mincostflow (bounds
// reused, no extra flow), another solver, solve-cache hits, warm flow, and
// sharding (filled with the unsharded component bound).
func TestRelaxedBoundMatchesMonolithic(t *testing.T) {
	type instance struct {
		name string
		in   *core.Instance
	}
	var cases []instance
	for seed := int64(1); seed <= 3; seed++ {
		cases = append(cases,
			instance{"clustered", clustered(t, 24, 96, 6, seed, 4, 2)},
			instance{"bridged", bridgedClustered(t, 24, 240, 6, seed)})
	}
	for _, c := range cases {
		want := core.RelaxedUpperBound(c.in)
		d, err := DecomposeContext(context.Background(), c.in)
		if err != nil {
			t.Fatal(err)
		}
		check := func(mode string, got float64) {
			t.Helper()
			if !closeRel(got, want) {
				t.Errorf("%s %s: RelaxedBound %v, monolithic %v", c.name, mode, got, want)
			}
		}

		got, extra, _ := boundAfter(t, d, "mincostflow", Options{})
		check("cold", got)
		if extra != 0 {
			t.Errorf("%s cold: RelaxedBound ran %d flows, want 0 (every component bound reused)", c.name, extra)
		}

		got, extra, _ = boundAfter(t, d, "greedy", Options{})
		check("greedy", got)
		if extra != int64(len(d.Components)) {
			t.Errorf("%s greedy: RelaxedBound ran %d flows, want one per component (%d)", c.name, extra, len(d.Components))
		}

		cache := solvecache.New(64)
		copt := Options{SolveCache: cache, SimID: "cosine/12/1"}
		boundAfter(t, d, "mincostflow", copt)
		hits := cache.Stats().Hits
		got, extra, _ = boundAfter(t, d, "mincostflow", copt)
		check("cache hit", got)
		if cache.Stats().Hits == hits || extra == 0 {
			t.Errorf("%s cache: hits %d→%d, fill flows %d; want hits and filled gaps", c.name, hits, cache.Stats().Hits, extra)
		}

		wopt := Options{WarmCache: core.NewWarmCache(0)}
		boundAfter(t, d, "mincostflow", wopt)
		got, extra, _ = boundAfter(t, d, "mincostflow", wopt)
		check("warm", got)
		if extra != 0 {
			t.Errorf("%s warm: RelaxedBound ran %d flows, want 0", c.name, extra)
		}

		// Shard bounds relax the shards, not the component (they miss the cut
		// pairs), so every component that sharded without falling back is
		// relaxed whole: one flow each; the rest reuse their own bound.
		sh := partition.Options{MaxArea: 500, DriftBudget: 0.9}
		got, extra, pst := boundAfter(t, d, "mincostflow", Options{Shard: &sh})
		check("sharded", got)
		wantExtra := 0
		if pst != nil {
			wantExtra = pst.Runs - pst.Fallbacks
		}
		if c.name == "bridged" && wantExtra == 0 {
			t.Errorf("%s: the giant component did not shard", c.name)
		}
		if extra != int64(wantExtra) {
			t.Errorf("%s sharded: RelaxedBound ran %d flows, want %d (one per sharded component)", c.name, extra, wantExtra)
		}
	}
}

// TestRelaxedBoundAfterSubset: components a solve step over a subset did
// not touch are relaxed on demand, the solved ones reused.
func TestRelaxedBoundAfterSubset(t *testing.T) {
	in := clustered(t, 24, 96, 6, 3, 4, 2)
	d, err := DecomposeContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.solveStep(context.Background(), "mincostflow", []int{0, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runs := mcflowRunsTotal.Value()
	got, err := d.RelaxedBound(context.Background(), st.bounds)
	if err != nil {
		t.Fatal(err)
	}
	if extra := mcflowRunsTotal.Value() - runs; extra != int64(len(d.Components)-2) {
		t.Errorf("RelaxedBound ran %d flows, want %d", extra, len(d.Components)-2)
	}
	if want := core.RelaxedUpperBound(in); !closeRel(got, want) {
		t.Errorf("RelaxedBound %v, monolithic %v", got, want)
	}
}

func TestRelaxedBoundCanceled(t *testing.T) {
	d, err := DecomposeContext(context.Background(), clustered(t, 16, 48, 4, 11, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.RelaxedBound(ctx, nil); err == nil {
		t.Fatal("canceled RelaxedBound returned no error")
	}
}
