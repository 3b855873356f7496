package decomp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
)

// matrixInstance builds a 3×4 instance with two similarity components, one
// stranded event (e2: zero row) and one stranded user (u3: zero column).
func matrixInstance(t *testing.T, pairs [][2]int) *core.Instance {
	t.Helper()
	events := []core.Event{{Cap: 2}, {Cap: 1}, {Cap: 1}}
	users := []core.User{{Cap: 1}, {Cap: 1}, {Cap: 1}, {Cap: 1}}
	matrix := [][]float64{
		{0.9, 0.5, 0, 0},
		{0, 0, 0.8, 0},
		{0, 0, 0, 0},
	}
	in, err := core.NewMatrixInstance(events, users, conflict.FromPairs(3, pairs), matrix)
	if err != nil {
		t.Fatalf("NewMatrixInstance: %v", err)
	}
	return in
}

// runDecomposed solves in with algo through Run's decomposed path.
func runDecomposed(ctx context.Context, algo string, in *core.Instance, s Spec) (*core.Matching, *core.DecompositionStats, error) {
	s.Algo, s.Decompose = algo, true
	res, err := Run(ctx, in, s, Env{})
	if res == nil {
		return nil, nil, err
	}
	return res.M, res.Decomposition, err
}

// setProcs sets GOMAXPROCS, which sizes the component pools, to n until
// the test ends.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestDecomposeMatrixComponents(t *testing.T) {
	in := matrixInstance(t, nil)
	d, err := DecomposeContext(context.Background(), in)
	if err != nil {
		t.Fatalf("DecomposeContext: %v", err)
	}
	if len(d.Components) != 2 {
		t.Fatalf("got %d components, want 2", len(d.Components))
	}
	c0, c1 := d.Components[0], d.Components[1]
	if !reflect.DeepEqual(c0.Events, []int{0}) || !reflect.DeepEqual(c0.Users, []int{0, 1}) {
		t.Fatalf("component 0 = (%v, %v), want ([0], [0 1])", c0.Events, c0.Users)
	}
	if !reflect.DeepEqual(c1.Events, []int{1}) || !reflect.DeepEqual(c1.Users, []int{2}) {
		t.Fatalf("component 1 = (%v, %v), want ([1], [2])", c1.Events, c1.Users)
	}
	if d.StrandedEvents != 1 || d.StrandedUsers != 1 {
		t.Fatalf("stranded = (%d, %d), want (1, 1)", d.StrandedEvents, d.StrandedUsers)
	}
	// Sub-instance similarities must agree with the parent's bitwise.
	if got := c0.Sub.Similarity(0, 1); got != in.Similarity(0, 1) {
		t.Fatalf("sub similarity %v != parent %v", got, in.Similarity(0, 1))
	}
	if area := d.MaxComponentArea(nil); area != 2 {
		t.Fatalf("MaxComponentArea = %d, want 2", area)
	}
	st := d.Stats()
	if st.Components != 2 || st.LargestEvents != 1 || st.LargestUsers != 2 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if want := min(runtime.GOMAXPROCS(0), 2); st.Workers != want {
		t.Fatalf("stats workers %d, want %d", st.Workers, want)
	}
}

func TestDecomposeConflictEdgeMergesComponents(t *testing.T) {
	// A CF edge between e0 and e1 belongs to the union graph, so the two
	// similarity components collapse into one shard.
	in := matrixInstance(t, [][2]int{{0, 1}})
	d, err := DecomposeContext(context.Background(), in)
	if err != nil {
		t.Fatalf("DecomposeContext: %v", err)
	}
	if len(d.Components) != 1 {
		t.Fatalf("got %d components, want 1", len(d.Components))
	}
	c := d.Components[0]
	if !reflect.DeepEqual(c.Events, []int{0, 1}) || !reflect.DeepEqual(c.Users, []int{0, 1, 2}) {
		t.Fatalf("component = (%v, %v), want ([0 1], [0 1 2])", c.Events, c.Users)
	}
	// The conflict edge must survive remapping into the sub index space.
	if !c.Sub.Conflicting(0, 1) {
		t.Fatal("sub-instance lost the (e0, e1) conflict")
	}
}

// clustered returns a deterministic multi-community instance.
func clustered(t *testing.T, nv, nu, k int, seed int64, evCap, usCap int) *core.Instance {
	t.Helper()
	cfg := dataset.ClusteredConfig{
		NumEvents: nv, NumUsers: nu, Communities: k, BlockDim: 2,
		EventCapMax: evCap, UserCapMax: usCap, CFRatio: 0.4, Seed: seed,
	}
	in, err := cfg.Generate()
	if err != nil {
		t.Fatalf("clustered generate: %v", err)
	}
	return in
}

func TestClusteredInstanceDecomposesIntoCommunities(t *testing.T) {
	in := clustered(t, 20, 60, 4, 7, 5, 2)
	d, err := DecomposeContext(context.Background(), in)
	if err != nil {
		t.Fatalf("DecomposeContext: %v", err)
	}
	if len(d.Components) != 4 {
		t.Fatalf("got %d components, want 4 (one per community)", len(d.Components))
	}
	if d.StrandedEvents != 0 || d.StrandedUsers != 0 {
		t.Fatalf("unexpected stranded nodes: %d events, %d users", d.StrandedEvents, d.StrandedUsers)
	}
}

// TestDecomposedExactMatchesWholeExact is the compositional-optimality
// property: merge(exact(components)) has the same MaxSum as exact(whole),
// on clustered instances and on random sparse matrix instances whose
// components emerge by chance.
func TestDecomposedExactMatchesWholeExact(t *testing.T) {
	check := func(name string, in *core.Instance) {
		t.Helper()
		whole, _, err := core.ExactOpts(in, core.ExactOptions{})
		if err != nil {
			t.Fatalf("%s: whole exact: %v", name, err)
		}
		merged, _, err := runDecomposed(context.Background(), "exact", in, Spec{})
		if err != nil {
			t.Fatalf("%s: decomposed exact: %v", name, err)
		}
		if err := core.Validate(in, merged); err != nil {
			t.Fatalf("%s: merged exact matching infeasible: %v", name, err)
		}
		if diff := math.Abs(whole.MaxSum() - merged.MaxSum()); diff > 1e-9 {
			t.Fatalf("%s: decomposed exact MaxSum %v != whole %v (diff %v)",
				name, merged.MaxSum(), whole.MaxSum(), diff)
		}
	}

	for seed := int64(1); seed <= 4; seed++ {
		check("clustered", clustered(t, 6, 12, 3, seed, 3, 2))
	}

	// Random sparse matrices: ~60% zero entries plus random conflicts, so
	// component structure (including stranded nodes) varies per seed.
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv, nu := 5, 8
		events := make([]core.Event, nv)
		for i := range events {
			events[i] = core.Event{Cap: 1 + rng.Intn(3)}
		}
		users := make([]core.User, nu)
		for i := range users {
			users[i] = core.User{Cap: 1 + rng.Intn(2)}
		}
		matrix := make([][]float64, nv)
		for v := range matrix {
			matrix[v] = make([]float64, nu)
			for u := range matrix[v] {
				if rng.Float64() > 0.6 {
					matrix[v][u] = rng.Float64()
				}
			}
		}
		cf := conflict.Random(rng, nv, 0.3)
		in, err := core.NewMatrixInstance(events, users, cf, matrix)
		if err != nil {
			t.Fatalf("matrix instance: %v", err)
		}
		check("matrix", in)
	}
}

// TestDecomposedSolversFeasible merges every registry solver's component
// matchings and validates the result against the parent instance.
func TestDecomposedSolversFeasible(t *testing.T) {
	in := clustered(t, 16, 48, 4, 11, 3, 2)
	for _, algo := range core.SolverNames() {
		m, st, err := runDecomposed(context.Background(), algo, in, Spec{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := core.Validate(in, m); err != nil {
			t.Fatalf("%s: merged matching infeasible: %v", algo, err)
		}
		if st.Components != 4 {
			t.Fatalf("%s: stats report %d components, want 4", algo, st.Components)
		}
	}
}

// TestDecomposedGreedyMatchesMonolithicGreedy: with no positive-similarity
// or conflict edges across components, the global greedy's decisions
// restrict exactly to per-component greedy runs, so the merged pair set is
// identical to the monolithic one.
func TestDecomposedGreedyMatchesMonolithicGreedy(t *testing.T) {
	in := clustered(t, 20, 100, 5, 13, 5, 2)
	mono := core.Greedy(in)
	merged, _, err := runDecomposed(context.Background(), "greedy", in, Spec{})
	if err != nil {
		t.Fatalf("decomposed greedy: %v", err)
	}
	if !reflect.DeepEqual(mono.SortedPairs(), merged.SortedPairs()) {
		t.Fatalf("decomposed greedy pairs differ from monolithic:\nmono   %v\nmerged %v",
			mono.SortedPairs(), merged.SortedPairs())
	}
}

// TestSolveDeterministicAcrossWorkerCounts: the merged matching (pair order
// and float-summed MaxSum included) must not depend on pool size, which
// GOMAXPROCS sets.
func TestSolveDeterministicAcrossWorkerCounts(t *testing.T) {
	in := clustered(t, 24, 96, 6, 17, 4, 2)
	for _, algo := range []string{"greedy", "mincostflow", "random-v"} {
		var want *core.Matching
		for _, workers := range []int{1, 3, 8} {
			setProcs(t, workers)
			m, _, err := runDecomposed(context.Background(), algo, in, Spec{Seed: 5})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", algo, workers, err)
			}
			if want == nil {
				want = m
				continue
			}
			if m.MaxSum() != want.MaxSum() {
				t.Fatalf("%s workers=%d: MaxSum %v != workers=1 %v", algo, workers, m.MaxSum(), want.MaxSum())
			}
			if !reflect.DeepEqual(m.Pairs(), want.Pairs()) {
				t.Fatalf("%s workers=%d: pair sequence differs from workers=1", algo, workers)
			}
		}
	}
}

// TestSolveContextCancelMidShard cancels the context from inside the first
// component's solve: the remaining shards must be skipped and the
// cancellation surfaced as the run's error.
func TestSolveContextCancelMidShard(t *testing.T) {
	in := clustered(t, 16, 32, 4, 19, 3, 2)
	d, err := DecomposeContext(context.Background(), in)
	if err != nil {
		t.Fatalf("DecomposeContext: %v", err)
	}
	if len(d.Components) != 4 {
		t.Fatalf("got %d components, want 4", len(d.Components))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	orig := solveComponentFn
	solveComponentFn = func(ctx context.Context, algo string, c Component, compIdx int, opt Options) (*core.Matching, float64, bool, error) {
		if calls.Add(1) == 1 {
			cancel() // the client goes away while shard 0 is in flight
		}
		return orig(ctx, algo, c, compIdx, opt)
	}
	defer func() { solveComponentFn = orig }()

	setProcs(t, 1)
	m, err := d.SolveContext(ctx, "greedy", Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m != nil {
		t.Fatalf("canceled solve returned a matching with %d pairs", m.Size())
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d component solves dispatched after cancellation, want 1", got)
	}
}

// TestSolvePreCanceledContext: cancellation before the run starts is
// reported without dispatching any component.
func TestSolvePreCanceledContext(t *testing.T) {
	in := clustered(t, 8, 16, 2, 23, 3, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := runDecomposed(ctx, "greedy", in, Spec{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExactNodeLimitPerComponent: a tripped per-component budget keeps the
// best-so-far shard matchings, merges them feasibly, and surfaces
// core.ErrNodeLimit.
func TestExactNodeLimitPerComponent(t *testing.T) {
	in := clustered(t, 12, 24, 3, 29, 3, 2)
	m, _, err := runDecomposed(context.Background(), "exact", in, Spec{NodeLimit: 1})
	if !errors.Is(err, core.ErrNodeLimit) {
		t.Fatalf("err = %v, want core.ErrNodeLimit", err)
	}
	if m == nil {
		t.Fatal("budget-tripped solve returned no matching")
	}
	if err := core.Validate(in, m); err != nil {
		t.Fatalf("budget-tripped matching infeasible: %v", err)
	}
}

func TestSolveUnknownAlgorithm(t *testing.T) {
	in := clustered(t, 4, 8, 2, 31, 2, 2)
	if _, _, err := runDecomposed(context.Background(), "no-such-solver", in, Spec{}); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

func TestEmptyInstance(t *testing.T) {
	in, err := core.NewMatrixInstance(nil, nil, nil, [][]float64{})
	if err != nil {
		t.Fatalf("empty instance: %v", err)
	}
	m, st, err := runDecomposed(context.Background(), "greedy", in, Spec{})
	if err != nil {
		t.Fatalf("empty solve: %v", err)
	}
	if m.Size() != 0 || st.Components != 0 {
		t.Fatalf("empty instance produced %d pairs over %d components", m.Size(), st.Components)
	}
}
