package bench

import (
	"testing"
)

// TestPinnedMaxSums solves every pinned solverBenchCases() point once
// through MeasureAlgo, large shapes included, and requires each MaxSum to
// equal the committed BENCH_solvers.json value bit for bit. It checks the
// pinned quality without `make bench-json`, whose timing gates can fail on
// a noisy host; the warm-delta and partition points keep their own gates.
func TestPinnedMaxSums(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every pinned shape, large ones included")
	}
	pins, err := ReadSolverBenchFile("../../BENCH_solvers.json")
	if err != nil {
		t.Fatal(err)
	}
	pinned := make(map[string]float64, len(pins))
	for _, p := range pins {
		pinned[p.Name] = p.MaxSum
	}
	for _, c := range solverBenchCases() {
		want, ok := pinned[c.name()]
		if !ok {
			t.Errorf("%s: no pin in BENCH_solvers.json", c.name())
			continue
		}
		in, err := c.instance()
		if err != nil {
			t.Fatal(err)
		}
		m, _, _, err := MeasureAlgo(Options{Decompose: c.decompose}, in, c.algo, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name(), err)
		}
		if got := m.MaxSum(); got != want {
			t.Errorf("%s: maxsum %v, pinned %v", c.name(), got, want)
		}
	}
}
