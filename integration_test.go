package geacc

// End-to-end integration: world generation -> city extraction (the paper's
// preprocessing) -> solving (portfolio) -> local-search improvement ->
// quality report -> session archive -> HTTP service round trip. Exercises
// every layer of the repository against each other.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/ebsnlab/geacc/internal/bench"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/report"
	"github.com/ebsnlab/geacc/internal/server"
)

func TestEndToEndPipeline(t *testing.T) {
	// 1. Generate the global geo-tagged population and extract cities by
	// location clustering, as the paper's preprocessing does.
	world, err := dataset.DefaultWorld().Generate()
	if err != nil {
		t.Fatal(err)
	}
	cities, err := world.ExtractCities(3, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(cities) != 3 {
		t.Fatalf("extracted %d cities", len(cities))
	}
	in := cities[2].Instance // auckland: the smallest, fastest to solve

	// 2. Solve with the concurrent portfolio and post-optimize.
	best, results, err := core.PortfolioCtx(context.Background(), in, []string{"greedy", "mincostflow", "random-u"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d portfolio results", len(results))
	}
	improved, lsStats, err := core.LocalSearch(in, best, core.LocalSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if improved.MaxSum() < best.MaxSum() {
		t.Fatal("local search regressed")
	}
	_ = lsStats

	// 3. Quality report with the relaxation bound: achieved fraction must
	// be high for greedy-family results (paper Fig. 5c shape).
	rep, err := report.Build(context.Background(), in, improved, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UpperBound < rep.MaxSum {
		t.Fatalf("bound %v below achieved %v", rep.UpperBound, rep.MaxSum)
	}
	if rep.MaxSum < 0.85*rep.UpperBound {
		t.Fatalf("achieved only %.1f%% of the relaxation bound", 100*rep.MaxSum/rep.UpperBound)
	}

	// 4. Archive the session and restore it.
	var archive bytes.Buffer
	meta := encoding.SessionMeta{Algorithm: "portfolio+localsearch", Seed: 3}
	if err := encoding.EncodeSession(&archive, in, improved, meta,
		encoding.SimEuclidean, dataset.MeetupTagCount, 1); err != nil {
		t.Fatal(err)
	}
	restoredIn, restoredM, restoredMeta, err := encoding.DecodeSession(&archive)
	if err != nil {
		t.Fatal(err)
	}
	// MaxSum is re-accumulated in sorted pair order, so compare within
	// floating-point summation tolerance.
	if d := restoredM.MaxSum() - improved.MaxSum(); d > 1e-9 || d < -1e-9 {
		t.Fatalf("session round trip changed MaxSum by %v", d)
	}
	if restoredM.Size() != improved.Size() || restoredMeta.Algorithm != meta.Algorithm {
		t.Fatal("session round trip lost data")
	}

	// 5. Serve the restored instance over HTTP and re-solve remotely.
	srv := httptest.NewServer(server.New())
	defer srv.Close()
	var instDoc bytes.Buffer
	if err := encoding.EncodeInstance(&instDoc, restoredIn,
		encoding.SimEuclidean, dataset.MeetupTagCount, 1); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/solve?algo=greedy", "application/json", &instDoc)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/solve status %d", resp.StatusCode)
	}
	var solved server.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&solved); err != nil {
		t.Fatal(err)
	}
	// The HTTP greedy must agree with the in-process greedy on this
	// instance (both deterministic).
	local := core.Greedy(restoredIn)
	if diff := solved.Matching.MaxSum - local.MaxSum(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("HTTP greedy %v != local greedy %v", solved.Matching.MaxSum, local.MaxSum())
	}
}

func TestEndToEndExperimentToCSV(t *testing.T) {
	// A harness experiment runs and its points survive the CSV writer —
	// the path geacc-bench drives.
	exp, err := bench.Lookup("table1")
	if err != nil {
		t.Fatal(err)
	}
	points, err := exp.Run(bench.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := bench.WriteCSV(&csv, points); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(csv.Bytes(), []byte("greedy")) {
		t.Fatal("CSV lost algorithms")
	}
	tables := bench.RenderTables("t", "x", points, bench.StandardMetrics())
	if len(tables) == 0 {
		t.Fatal("empty tables")
	}
}

func TestEndToEndDynamicThenStatic(t *testing.T) {
	// Drive the dynamic Arranger, snapshot it, and check the static
	// algorithms agree about its state.
	arr, err := NewArranger(EuclideanSimilarity(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	vec := func(a, b, c, d float64) []float64 { return []float64{a, b, c, d} }
	arr.AddEvent(Event{Attrs: vec(1, 1, 1, 1), Cap: 2}, nil)
	v1, _ := arr.AddEvent(Event{Attrs: vec(9, 9, 9, 9), Cap: 1}, nil)
	arr.AddEvent(Event{Attrs: vec(5, 5, 5, 5), Cap: 1}, []int{v1})
	for i := 0; i < 6; i++ {
		arr.AddUser(User{Attrs: vec(float64(i), 2, 5, 7), Cap: 2})
	}
	arr.RemoveUser(0)
	arr.CancelEvent(v1)
	if _, err := arr.Rebalance(); err != nil {
		t.Fatal(err)
	}
	in, m, err := arr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Validate(in, m); err != nil {
		t.Fatal(err)
	}
	// After a rebalance the arrangement equals batch greedy on the
	// snapshot.
	if got, want := m.MaxSum(), core.Greedy(in).MaxSum(); got < want-1e-9 {
		t.Fatalf("rebalanced %v below batch greedy %v", got, want)
	}
}
