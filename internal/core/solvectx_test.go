package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/ebsnlab/geacc/internal/obs"
)

func ctxTestInstance(t *testing.T) *Instance {
	t.Helper()
	in, err := NewMatrixInstance(
		[]Event{{Cap: 2}, {Cap: 1}},
		[]User{{Cap: 1}, {Cap: 1}, {Cap: 2}},
		nil,
		[][]float64{{0.9, 0.1, 0.5}, {0.2, 0.8, 0.3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestSolveContextMatchesPlainSolvers: every registry entry answers what
// its algorithm's plain entry point answers.
func TestSolveContextMatchesPlainSolvers(t *testing.T) {
	in := ctxTestInstance(t)
	plain := map[string]func(*Instance, *rand.Rand) *Matching{
		"greedy":      func(in *Instance, _ *rand.Rand) *Matching { return Greedy(in) },
		"mincostflow": func(in *Instance, _ *rand.Rand) *Matching { return MinCostFlowOpts(in, FlowOptions{}).Matching },
		"exact": func(in *Instance, _ *rand.Rand) *Matching {
			m, _, err := ExactOpts(in, ExactOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"random-v": RandomV,
		"random-u": RandomU,
	}
	if len(plain) != len(SolverNames()) {
		t.Fatalf("registry %v, plain solvers %d", SolverNames(), len(plain))
	}
	for _, name := range SolverNames() {
		solve, ok := plain[name]
		if !ok {
			t.Fatalf("no plain solver for %s", name)
		}
		want := solve(in, rand.New(rand.NewSource(1)))
		got, err := SolveContext(context.Background(), name, in, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.MaxSum() != want.MaxSum() || got.Size() != want.Size() {
			t.Fatalf("%s: ctx result (%v, %d) != plain result (%v, %d)",
				name, got.MaxSum(), got.Size(), want.MaxSum(), want.Size())
		}
		if err := Validate(in, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestSolveContextUnknownSolver(t *testing.T) {
	if _, err := SolveContext(context.Background(), "quantum", ctxTestInstance(t), nil); err == nil {
		t.Fatal("unknown solver did not error")
	}
}

func TestSolveContextCanceled(t *testing.T) {
	in := ctxTestInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range SolverNames() {
		m, err := SolveContext(ctx, name, in, rand.New(rand.NewSource(1)))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if m != nil {
			t.Fatalf("%s: returned a matching despite cancellation", name)
		}
	}
}

func TestGreedyCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := GreedyCtx(ctx, ctxTestInstance(t), GreedyOptions{})
	if !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("m=%v err=%v", m, err)
	}
}

func TestMinCostFlowCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MinCostFlowCtx(ctx, ctxTestInstance(t), FlowOptions{})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestExactCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, _, err := ExactOpts(ctxTestInstance(t), ExactOptions{Ctx: ctx})
	if !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("m=%v err=%v", m, err)
	}
}

func TestExactCtxCancelMidSearch(t *testing.T) {
	// A 7x7 all-positive instance without pruning expands well past one
	// exactCtxStride of nodes, so a context canceled after the entry check
	// must abort the recursion via the periodic poll.
	n := 7
	events := make([]Event, n)
	users := make([]User, n)
	matrix := make([][]float64, n)
	for i := 0; i < n; i++ {
		events[i] = Event{Cap: 2}
		users[i] = User{Cap: 2}
		matrix[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			matrix[i][j] = 0.1 + 0.8*float64((i*n+j)%17)/17
		}
	}
	in, err := NewMatrixInstance(events, users, nil, matrix)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var searchErr error
	go func() {
		_, _, searchErr = ExactOpts(in, ExactOptions{Ctx: ctx, DisablePruning: true})
		close(done)
	}()
	cancel()
	<-done
	// Either the search finished before the first poll (tiny machines) or
	// it observed the cancellation; both must terminate, and an error must
	// be the context's.
	if searchErr != nil && !errors.Is(searchErr, context.Canceled) {
		t.Fatalf("err = %v", searchErr)
	}
}

func TestPortfolioCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, _, err := PortfolioCtx(ctx, ctxTestInstance(t), []string{"greedy", "mincostflow"}, 1)
	if !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("m=%v err=%v", m, err)
	}
}

func TestSolveContextRecordsMetrics(t *testing.T) {
	reg := obs.Default()
	total := reg.Counter(obs.Label("geacc_solve_total", "algo", "greedy"))
	hist := reg.Histogram(obs.Label("geacc_solve_seconds", "algo", "greedy"), obs.DefaultLatencyBuckets)
	beforeTotal, beforeCount := total.Value(), hist.Snapshot().Count
	if _, err := SolveContext(context.Background(), "greedy", ctxTestInstance(t), nil); err != nil {
		t.Fatal(err)
	}
	if total.Value() != beforeTotal+1 {
		t.Fatalf("solve_total did not increment: %d -> %d", beforeTotal, total.Value())
	}
	if hist.Snapshot().Count != beforeCount+1 {
		t.Fatalf("solve_seconds did not record: %d -> %d", beforeCount, hist.Snapshot().Count)
	}
}

func TestMinCostFlowRecordsSearchWork(t *testing.T) {
	reg := obs.Default()
	aug := reg.Counter("geacc_mcflow_augmentations_total")
	searches := reg.Counter("geacc_mcflow_searches_total")
	pops := reg.Counter("geacc_mcflow_dijkstra_pops_total")
	scans := reg.Counter("geacc_mcflow_arc_scans_total")
	a0, n0, p0, s0 := aug.Value(), searches.Value(), pops.Value(), scans.Value()
	res := MinCostFlowOpts(ctxTestInstance(t), FlowOptions{})
	da, dn, dp, ds := aug.Value()-a0, searches.Value()-n0, pops.Value()-p0, scans.Value()-s0
	// Unit pair arcs: one augmenting path per unit of Δ, and one
	// event-space search per unit plus the one that finds no path below 1.
	if da != res.Delta || da == 0 {
		t.Fatalf("augmentations moved by %d, Delta is %d", da, res.Delta)
	}
	if dn != da+1 {
		t.Fatalf("searches moved by %d over %d augmentations, want one more", dn, da)
	}
	// A search that pushes settles the path's events, at least one; no
	// search settles an event twice or relaxes more than one compound arc
	// per settled event and unsettled one.
	const nv = 2
	if dp < da || dp > dn*nv || ds > dp*nv {
		t.Fatalf("pops moved by %d and arc scans by %d over %d searches", dp, ds, dn)
	}
}

func TestSolveContextRecordsErrorMetric(t *testing.T) {
	reg := obs.Default()
	errs := reg.Counter(obs.Label("geacc_solve_errors_total", "algo", "mincostflow"))
	before := errs.Value()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveContext(ctx, "mincostflow", ctxTestInstance(t), nil); err == nil {
		t.Fatal("expected error")
	}
	if errs.Value() != before+1 {
		t.Fatalf("solve_errors_total did not increment: %d -> %d", before, errs.Value())
	}
}

func TestSolveContextEmitsSpans(t *testing.T) {
	rec := obs.NewRecorder()
	ctx := obs.ContextWithRecorder(context.Background(), rec)
	if _, err := SolveContext(ctx, "mincostflow", ctxTestInstance(t), nil); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, sp := range rec.Spans() {
		names[sp.Name] = true
	}
	for _, want := range []string{"solve/mincostflow", "mincostflow/relax", "mincostflow/resolve"} {
		if !names[want] {
			t.Fatalf("missing span %q in %v", want, names)
		}
	}
}

func TestPortfolioRecordsWin(t *testing.T) {
	runs := obs.Default().Counter("geacc_portfolio_runs_total")
	before := runs.Value()
	if _, _, err := PortfolioCtx(context.Background(), ctxTestInstance(t), []string{"greedy", "mincostflow"}, 1); err != nil {
		t.Fatal(err)
	}
	if runs.Value() != before+1 {
		t.Fatal("portfolio run not counted")
	}
}
