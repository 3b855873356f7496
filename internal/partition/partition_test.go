package partition

import (
	"context"
	"runtime"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
)

// bridged generates a clustered instance whose communities are chained into
// one giant similarity component by bridge users — the workload this package
// exists for.
func bridged(t testing.TB, nv, nu, k int, cfRatio, bridgeFrac float64, seed int64) *core.Instance {
	t.Helper()
	cfg := dataset.ClusteredConfig{
		NumEvents: nv, NumUsers: nu, Communities: k, BlockDim: 2,
		EventCapMax: 6, UserCapMax: 3, CFRatio: cfRatio,
		BridgeFrac: bridgeFrac, Seed: seed,
	}
	in, err := cfg.Generate()
	if err != nil {
		t.Fatalf("bridged generate: %v", err)
	}
	return in
}

// mcfFuncs returns the shard and mono solve hooks every test uses: plain
// registry min-cost flow on the sub-instance and on the whole component.
func mcfFuncs(in *core.Instance) (ShardSolveFunc, MonoSolveFunc) {
	solve := func(ctx context.Context, sub *core.Instance, events, users []int, shard int) (*core.Matching, error) {
		return core.SolveContext(ctx, "mincostflow", sub, nil)
	}
	mono := func(ctx context.Context) (*core.Matching, error) {
		return core.SolveContext(ctx, "mincostflow", in, nil)
	}
	return solve, mono
}

func samePairs(a, b *core.Matching) bool {
	pa, pb := a.SortedPairs(), b.SortedPairs()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return false
		}
	}
	return true
}

func TestParseStrategy(t *testing.T) {
	for in, want := range map[string]Strategy{
		"": StrategyModularity, "modularity": StrategyModularity, "bfs": StrategyBFS,
	} {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Fatalf("ParseStrategy(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	if _, err := ParseStrategy("zigzag"); err == nil {
		t.Fatal("ParseStrategy accepted an unknown strategy")
	}
}

func TestNormalizedDefaults(t *testing.T) {
	o := Options{}.Normalized()
	if o.MaxArea != DefaultMaxArea || o.Strategy != StrategyModularity ||
		o.DriftBudget != DefaultDriftBudget || o.RepairRounds != DefaultRepairRounds {
		t.Fatalf("unexpected defaults %+v", o)
	}
	set := Options{MaxArea: 7, Strategy: StrategyBFS, DriftBudget: 0.2, RepairRounds: 5}
	if got := set.Normalized(); got != set {
		t.Fatalf("Normalized clobbered explicit options: %+v", got)
	}
}

// TestBuildSplitDisjointCoverage: the split is a true partition — every user
// in exactly one shard, every event in at most one (events of a shard that
// attracted no users are dropped, their pairs counted as cut), and shard
// sub-instances carry the parent's similarities bit-identically.
func TestBuildSplitDisjointCoverage(t *testing.T) {
	in := bridged(t, 24, 240, 6, 0.3, 0.2, 11)
	for _, strat := range []Strategy{StrategyModularity, StrategyBFS} {
		opt := Options{MaxArea: 500, Strategy: strat}.Normalized()
		sl, err := buildSplit(in, opt)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if sl == nil || len(sl.shards) < 2 {
			t.Fatalf("%s: expected a multi-shard split", strat)
		}
		evSeen := make(map[int]int)
		usSeen := make(map[int]int)
		for si, sh := range sl.shards {
			if len(sh.Events) == 0 || len(sh.Users) == 0 {
				t.Fatalf("%s: shard %d degenerate (%d events, %d users)", strat, si, len(sh.Events), len(sh.Users))
			}
			for _, v := range sh.Events {
				if prev, dup := evSeen[v]; dup {
					t.Fatalf("%s: event %d in shards %d and %d", strat, v, prev, si)
				}
				evSeen[v] = si
			}
			for _, u := range sh.Users {
				if prev, dup := usSeen[u]; dup {
					t.Fatalf("%s: user %d in shards %d and %d", strat, u, prev, si)
				}
				usSeen[u] = si
			}
			for i, v := range sh.Events {
				for j, u := range sh.Users {
					if got, want := sh.Sub.Similarity(i, j), in.Similarity(v, u); got != want {
						t.Fatalf("%s: sub sim(%d,%d)=%v != parent sim(%d,%d)=%v", strat, i, j, got, v, u, want)
					}
				}
			}
		}
		if len(usSeen) != in.NumUsers() {
			t.Fatalf("%s: %d users covered, want %d", strat, len(usSeen), in.NumUsers())
		}
		if sl.lostCutBound < 0 || (len(sl.cuts) > 0 && sl.lostCutBound <= 0) {
			t.Fatalf("%s: implausible lost-cut bound %v for %d cuts", strat, sl.lostCutBound, len(sl.cuts))
		}
	}
}

func TestBuildSplitBelowThreshold(t *testing.T) {
	in := bridged(t, 8, 40, 4, 0.2, 0.25, 3)
	area := int64(in.NumEvents()) * int64(in.NumUsers())
	sl, err := buildSplit(in, Options{MaxArea: area}.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	if sl != nil {
		t.Fatal("buildSplit sharded a component at the area threshold")
	}
}

// TestSolveComponentFeasible: on the giant bridged component, both
// strategies produce a multi-shard split whose merged matching validates
// against the full instance (capacities + conflicts) with populated stats.
func TestSolveComponentFeasible(t *testing.T) {
	in := bridged(t, 32, 320, 8, 0.3, 0.1, 7)
	solve, mono := mcfFuncs(in)
	for _, strat := range []Strategy{StrategyModularity, StrategyBFS} {
		opt := Options{MaxArea: 600, Strategy: strat, DriftBudget: 0.9}
		m, st, err := SolveComponent(context.Background(), in, opt, solve, mono)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if st.Shards < 2 {
			t.Fatalf("%s: %d shards, want >= 2", strat, st.Shards)
		}
		if st.FellBack {
			t.Fatalf("%s: unexpected fallback (drift estimate %v)", strat, st.DriftEstimate)
		}
		if err := core.Validate(in, m); err != nil {
			t.Fatalf("%s: merged matching infeasible: %v", strat, err)
		}
		if st.CutPairs <= 0 || st.LostCutBound <= 0 {
			t.Fatalf("%s: bridged instance produced no cut (%+v)", strat, st)
		}
		if st.DriftEstimate <= 0 || st.DriftEstimate > opt.DriftBudget {
			t.Fatalf("%s: drift estimate %v outside (0, %v]", strat, st.DriftEstimate, opt.DriftBudget)
		}
		if st.Strategy != string(strat) || st.LargestEvents <= 0 || st.LargestUsers <= 0 {
			t.Fatalf("%s: unpopulated stats %+v", strat, st)
		}
	}
}

// TestSolveComponentDeterministicAcrossWorkers: the merged matching is a
// pure function of (instance, options) — identical pairs for any shard
// pool size (min(GOMAXPROCS, shards)) and across repeated runs.
func TestSolveComponentDeterministicAcrossWorkers(t *testing.T) {
	in := bridged(t, 24, 240, 6, 0.25, 0.15, 19)
	solve, mono := mcfFuncs(in)
	opt := Options{MaxArea: 500, DriftBudget: 0.9}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *core.Matching
	for _, workers := range []int{1, 2, 4, 7, 1} {
		runtime.GOMAXPROCS(workers)
		m, _, err := SolveComponent(context.Background(), in, opt, solve, mono)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = m
			continue
		}
		if !samePairs(ref, m) {
			t.Fatalf("workers=%d: merged matching differs from workers=1", workers)
		}
	}
}

// TestSolveComponentTinyBudgetFallsBack: a drift budget below any positive
// estimate must trigger the hard monolithic fallback, bit-identical to the
// mono solve.
func TestSolveComponentTinyBudgetFallsBack(t *testing.T) {
	in := bridged(t, 24, 240, 6, 0.25, 0.15, 19)
	solve, mono := mcfFuncs(in)
	opt := Options{MaxArea: 500, DriftBudget: 1e-12}
	m, st, err := SolveComponent(context.Background(), in, opt, solve, mono)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FellBack {
		t.Fatalf("no fallback at budget 1e-12 (drift estimate %v)", st.DriftEstimate)
	}
	mm, err := mono(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !samePairs(m, mm) {
		t.Fatal("fallback matching differs from the monolithic solve")
	}
}

// TestSolveComponentSingleEventUsesMono: a component that cannot split
// (one event) answers through mono with Shards == 1 and zero drift.
func TestSolveComponentSingleEventUsesMono(t *testing.T) {
	events := []core.Event{{Cap: 2}}
	users := make([]core.User, 30)
	matrix := [][]float64{make([]float64, 30)}
	for u := range users {
		users[u] = core.User{Cap: 1}
		matrix[0][u] = 0.5
	}
	in, err := core.NewMatrixInstance(events, users, nil, matrix)
	if err != nil {
		t.Fatal(err)
	}
	solve, mono := mcfFuncs(in)
	m, st, err := SolveComponent(context.Background(), in, Options{MaxArea: 10}, solve, mono)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 1 || st.DriftEstimate != 0 || st.FellBack {
		t.Fatalf("unexpected stats %+v", st)
	}
	if m.Size() != 2 {
		t.Fatalf("mono path returned %d pairs, want 2", m.Size())
	}
}

// TestRepairBoundaryAddsCutPair: a cut pair with free capacity on both ends
// is added back with its full gain.
func TestRepairBoundaryAddsCutPair(t *testing.T) {
	events := []core.Event{{Cap: 2}, {Cap: 1}}
	users := []core.User{{Cap: 1}, {Cap: 1}}
	matrix := [][]float64{{0.9, 0.4}, {0.85, 0}}
	in, err := core.NewMatrixInstance(events, users, nil, matrix)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMatching()
	m.Add(0, 0, 0.9)
	cuts := []cutPair{{v: 0, u: 1, sim: 0.4}, {v: 1, u: 0, sim: 0.85}}
	repaired, moves, gain := repairBoundary(in, m, cuts, DefaultRepairRounds)
	if moves != 1 || gain != 0.4 {
		t.Fatalf("moves=%d gain=%v, want 1 move of gain 0.4", moves, gain)
	}
	if !repaired.Contains(0, 1) || !repaired.Contains(0, 0) {
		t.Fatalf("unexpected repaired pairs %v", repaired.Pairs())
	}
	if err := core.Validate(in, repaired); err != nil {
		t.Fatal(err)
	}
}

// TestRepairBoundaryDisplacesConflictingPair: a strong cut pair displaces a
// strictly weaker assignment its event conflicts with.
func TestRepairBoundaryDisplacesConflictingPair(t *testing.T) {
	events := []core.Event{{Cap: 1}, {Cap: 1}}
	users := []core.User{{Cap: 1}}
	matrix := [][]float64{{0.9}, {0.3}}
	cf := conflict.FromPairs(2, [][2]int{{0, 1}})
	in, err := core.NewMatrixInstance(events, users, cf, matrix)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMatching()
	m.Add(1, 0, 0.3)
	repaired, moves, gain := repairBoundary(in, m, []cutPair{{v: 0, u: 0, sim: 0.9}}, DefaultRepairRounds)
	if moves != 1 || gain < 0.59 || gain > 0.61 {
		t.Fatalf("moves=%d gain=%v, want the 0.3 -> 0.9 swap", moves, gain)
	}
	if !repaired.Contains(0, 0) || repaired.Contains(1, 0) {
		t.Fatalf("unexpected repaired pairs %v", repaired.Pairs())
	}
	if err := core.Validate(in, repaired); err != nil {
		t.Fatal(err)
	}
}

// TestRepairBoundaryNoFalseMoves: when no cut pair can strictly improve the
// matching, the input comes back untouched.
func TestRepairBoundaryNoFalseMoves(t *testing.T) {
	events := []core.Event{{Cap: 1}, {Cap: 1}}
	users := []core.User{{Cap: 1}, {Cap: 1}}
	matrix := [][]float64{{0.9, 0.8}, {0.7, 0.6}}
	in, err := core.NewMatrixInstance(events, users, nil, matrix)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMatching()
	m.Add(0, 0, 0.9)
	m.Add(1, 1, 0.6)
	repaired, moves, gain := repairBoundary(in, m, []cutPair{{v: 0, u: 1, sim: 0.8}, {v: 1, u: 0, sim: 0.7}}, DefaultRepairRounds)
	if moves != 0 || gain != 0 || repaired != m {
		t.Fatalf("moves=%d gain=%v: repair moved on a local optimum", moves, gain)
	}
}

func TestTopSum(t *testing.T) {
	if got := topSum([]float64{0.2, 0.9, 0.5}, 2); got != 1.4 {
		t.Fatalf("topSum = %v, want 1.4", got)
	}
	if got := topSum([]float64{0.2, 0.9}, 5); got != 1.1 {
		t.Fatalf("topSum under capacity = %v, want 1.1", got)
	}
}

func TestRenumberGroups(t *testing.T) {
	got := renumberGroups([]int{7, 7, 3, 7, 3, 9})
	want := []int{0, 0, 1, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("renumberGroups = %v, want %v", got, want)
		}
	}
}
