package decomp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/obs"
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
	if calls != 2 || env.Cache.Stats().Entries != 0 {
		t.Fatalf("hook ran %d times, %d cached entries; want 2 and 0", calls, env.Cache.Stats().Entries)
	}
}

// TestNodeLimitedExactIsMetered: a node-limited exact search goes through
// the metered solve path, monolithic and per component alike: it counts in
// geacc_solve_total{algo="exact"}, records a solve/exact span, and names
// the budget in its error. A node-limited exact rebalance adopts nothing.
func TestNodeLimitedExactIsMetered(t *testing.T) {
	in := clustered(t, 8, 40, 2, 3, 2, 2)
	total := obs.Default().Counter(obs.Label("geacc_solve_total", "algo", "exact"))
	for _, decompose := range []bool{false, true} {
		rec := obs.NewRecorder()
		before := total.Value()
		_, err := Run(obs.ContextWithRecorder(context.Background(), rec), in,
			Spec{Algo: "exact", NodeLimit: 1, Decompose: decompose}, Env{})
		if !errors.Is(err, core.ErrNodeLimit) || !strings.Contains(err.Error(), "of 1 nodes") {
			t.Fatalf("decompose=%v: err %v, want the node limit naming its budget", decompose, err)
		}
		want := int64(1)
		if decompose {
			want = 2 // one per component
		}
		if got := total.Value() - before; got != want {
			t.Errorf("decompose=%v: geacc_solve_total{algo=exact} moved by %d, want %d", decompose, got, want)
		}
		spans := 0
		for _, sp := range rec.Spans() {
			if sp.Name == "solve/exact" {
				spans++
			}
		}
		if int64(spans) != want {
			t.Errorf("decompose=%v: %d solve/exact spans, want %d", decompose, spans, want)
		}
	}

	arr, err := core.RestoreArranger(in, core.NewMatching())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RebalanceScoped(context.Background(), arr, "exact", nil, nil, true, Options{ExactNodeLimit: 1})
	if !errors.Is(err, core.ErrNodeLimit) || res.Adopted || arr.Matching().Size() != 0 {
		t.Fatalf("node-limited rebalance: res %+v err %v, %d pairs adopted", res, err, arr.Matching().Size())
	}
}

// table1Instance is the paper's TABLE I: three events (capacities 5, 3,
// 2), five users (capacities 3, 1, 1, 2, 3), explicit interestingness
// values, and the conflicting pair {v1, v3}.
func table1Instance(t *testing.T) *core.Instance {
	t.Helper()
	in, err := core.NewMatrixInstance(
		[]core.Event{{Cap: 5}, {Cap: 3}, {Cap: 2}},
		[]core.User{{Cap: 3}, {Cap: 1}, {Cap: 1}, {Cap: 2}, {Cap: 3}},
		conflict.FromPairs(3, [][2]int{{0, 2}}),
		[][]float64{
			{0.93, 0.43, 0.84, 0.64, 0.65},
			{0, 0.35, 0.19, 0.21, 0.4},
			{0.86, 0.57, 0.78, 0.79, 0.68},
		})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestRunDiagGapDefinition(t *testing.T) {
	in := table1Instance(t)
	ub := core.RelaxedUpperBound(in)
	for _, algo := range []string{"greedy", "mincostflow", "exact"} {
		res, err := Run(context.Background(), in, Spec{Algo: algo, Seed: 1, Diag: true}, Env{})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		m, d := res.M, res.Diag
		if d.Algo != algo {
			t.Errorf("%s: Algo = %q", algo, d.Algo)
		}
		if d.Events != in.NumEvents() || d.Users != in.NumUsers() {
			t.Errorf("%s: shape %d×%d, want %d×%d", algo, d.Events, d.Users, in.NumEvents(), in.NumUsers())
		}
		if d.Conflicts != in.Conflicts.Edges() {
			t.Errorf("%s: Conflicts = %d, want %d", algo, d.Conflicts, in.Conflicts.Edges())
		}
		if d.MaxSum != m.MaxSum() || d.Pairs != m.Size() {
			t.Errorf("%s: outcome %v/%d vs matching %v/%d", algo, d.MaxSum, d.Pairs, m.MaxSum(), m.Size())
		}
		if math.Abs(d.RelaxedUpperBound-ub) > 1e-9 {
			t.Errorf("%s: RelaxedUpperBound = %v, want %v", algo, d.RelaxedUpperBound, ub)
		}
		want := math.Max(0, (ub-m.MaxSum())/ub)
		if math.Abs(d.Gap-want) > 1e-12 {
			t.Errorf("%s: Gap = %v, want (ub-maxsum)/ub = %v", algo, d.Gap, want)
		}
		if d.Gap < 0 || d.Gap > 1 {
			t.Errorf("%s: gap %v outside [0, 1]", algo, d.Gap)
		}
		if d.Seconds <= 0 {
			t.Errorf("%s: Seconds = %v", algo, d.Seconds)
		}
		if len(d.Phases) == 0 {
			t.Errorf("%s: no phases recorded", algo)
		}
		if len(d.MetricDeltas) == 0 {
			t.Errorf("%s: no metric deltas recorded", algo)
		}
	}
}

// TestRunDiagBoundReuse is the reuse property: on small random instances
// (clustered ones, mostly zero pairs, alternating with dense Euclidean
// ones), every solver's diagnosed bound is bit-identical (==) to
// RelaxedUpperBound, and a diagnosed mincostflow solve runs the min-cost
// flow exactly once — its own relaxation doubles as the bound.
func TestRunDiagBoundReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		nv, nu := 2+rng.Intn(5), 3+rng.Intn(8)
		in := clustered(t, nv, nu, 2, int64(trial), 3, 2)
		if trial%2 == 1 {
			cfg := dataset.DefaultSynthetic()
			cfg.NumEvents, cfg.NumUsers, cfg.Dim, cfg.EventCapMax, cfg.UserCapMax, cfg.CFRatio, cfg.Seed = nv, nu, 3, 3, 2, 0.3, int64(trial)
			var err error
			if in, err = cfg.Generate(); err != nil {
				t.Fatal(err)
			}
		}
		ub := core.RelaxedUpperBound(in)
		for _, algo := range []string{"greedy", "mincostflow", "exact", "random-v"} {
			runs := mcflowRunsTotal.Value()
			res, err := Run(context.Background(), in, Spec{Algo: algo, Seed: int64(trial), Diag: true}, Env{})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, algo, err)
			}
			if res.Diag.RelaxedUpperBound != ub {
				t.Errorf("trial %d %s: bound %v != RelaxedUpperBound %v", trial, algo, res.Diag.RelaxedUpperBound, ub)
			}
			if algo == "mincostflow" {
				if got := mcflowRunsTotal.Value() - runs; got != 1 {
					t.Errorf("trial %d: diagnosed mincostflow ran the flow %d times, want 1", trial, got)
				}
			}
		}
	}
}

func TestRunDiagOptimalSolveHasZeroGap(t *testing.T) {
	// Without conflicts MinCostFlow solves the instance exactly, so the
	// achieved MaxSum meets the Corollary 1 bound and the gap must be 0.
	in, err := core.NewMatrixInstance(
		[]core.Event{{Cap: 2}, {Cap: 1}},
		[]core.User{{Cap: 1}, {Cap: 1}, {Cap: 2}},
		nil,
		[][]float64{{0.9, 0.1, 0.5}, {0.2, 0.8, 0.3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), in, Spec{Algo: "mincostflow", Diag: true}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Diag; d.Gap != 0 {
		t.Errorf("gap = %v on a conflict-free mincostflow solve, want 0", d.Gap)
	}
	if d := res.Diag; d.EventCapacity != 3 || d.UserCapacity != 4 {
		t.Errorf("capacities %d/%d, want 3/4", d.EventCapacity, d.UserCapacity)
	}
}

func TestRunDiagReusesContextRecorder(t *testing.T) {
	in := table1Instance(t)
	rec := obs.NewRecorder()
	ctx := obs.ContextWithRecorder(context.Background(), rec)
	res, err := Run(ctx, in, Spec{Algo: "mincostflow", Diag: true}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	// The caller's recorder sees the same spans the artifact lists.
	spans := rec.Spans()
	if len(spans) != len(res.Diag.Phases) {
		t.Fatalf("recorder has %d spans, diagnostics %d phases", len(spans), len(res.Diag.Phases))
	}
	names := map[string]bool{}
	for _, sp := range spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"solve/mincostflow", "mincostflow/relax", "mincostflow/resolve"} {
		if !names[want] {
			t.Errorf("span %q missing (have %v)", want, names)
		}
	}
}

func TestRunDiagPublishesGapMetrics(t *testing.T) {
	in := table1Instance(t)
	gapCount := func() int64 {
		var b strings.Builder
		if err := obs.Default().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, `geacc_solve_gap_count{algo="greedy"} `); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		return 0
	}
	before := gapCount()
	res, err := Run(context.Background(), in, Spec{Algo: "greedy", Diag: true}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if after := gapCount(); after != before+1 {
		t.Errorf("gap histogram count %d -> %d, want +1", before, after)
	}
	if got := obs.Default().FloatGauge(obs.Label("geacc_solve_last_gap", "algo", "greedy")).Value(); got != res.Diag.Gap {
		t.Errorf("last-gap gauge = %v, want %v", got, res.Diag.Gap)
	}
}
