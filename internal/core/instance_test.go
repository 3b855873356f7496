package core

import (
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/sim"
)

func TestNewInstanceValidation(t *testing.T) {
	f := sim.Euclidean(2, 10)
	ok := func(events []Event, users []User, cf *conflict.Graph) error {
		_, err := NewInstance(events, users, cf, f)
		return err
	}
	if err := ok([]Event{{Attrs: sim.Vector{1, 2}, Cap: 1}}, []User{{Attrs: sim.Vector{3, 4}, Cap: 1}}, nil); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	if err := ok([]Event{{Attrs: sim.Vector{1}, Cap: 1}}, []User{{Attrs: sim.Vector{3, 4}, Cap: 1}}, nil); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := ok([]Event{{Attrs: sim.Vector{1, 2}, Cap: -1}}, nil, nil); err == nil {
		t.Error("negative event capacity accepted")
	}
	if err := ok(nil, []User{{Attrs: sim.Vector{1, 2}, Cap: -3}}, nil); err == nil {
		t.Error("negative user capacity accepted")
	}
	if err := ok([]Event{{Attrs: sim.Vector{1, 2}, Cap: 1}}, nil, conflict.New(5)); err == nil {
		t.Error("conflict graph size mismatch accepted")
	}
	if _, err := NewInstance(nil, nil, nil, nil); err == nil {
		t.Error("nil similarity function accepted")
	}
}

func TestNewMatrixInstanceValidation(t *testing.T) {
	events := []Event{{Cap: 1}, {Cap: 2}}
	users := []User{{Cap: 1}}
	if _, err := NewMatrixInstance(events, users, nil, [][]float64{{0.5}, {0.7}}); err != nil {
		t.Errorf("valid matrix instance rejected: %v", err)
	}
	if _, err := NewMatrixInstance(events, users, nil, [][]float64{{0.5}}); err == nil {
		t.Error("wrong row count accepted")
	}
	if _, err := NewMatrixInstance(events, users, nil, [][]float64{{0.5, 0.6}, {0.7, 0.8}}); err == nil {
		t.Error("wrong column count accepted")
	}
	if _, err := NewMatrixInstance(events, users, nil, [][]float64{{1.5}, {0.7}}); err == nil {
		t.Error("similarity > 1 accepted")
	}
	if _, err := NewMatrixInstance(events, users, nil, [][]float64{{-0.1}, {0.7}}); err == nil {
		t.Error("negative similarity accepted")
	}
}

func TestInstanceAccessors(t *testing.T) {
	f := sim.Euclidean(1, 10)
	in, err := NewInstance(
		[]Event{{Attrs: sim.Vector{0}, Cap: 5}, {Attrs: sim.Vector{10}, Cap: 2}},
		[]User{{Attrs: sim.Vector{0}, Cap: 3}, {Attrs: sim.Vector{5}, Cap: 4}, {Attrs: sim.Vector{10}, Cap: 1}},
		conflict.FromPairs(2, [][2]int{{0, 1}}),
		f,
	)
	if err != nil {
		t.Fatal(err)
	}
	if in.NumEvents() != 2 || in.NumUsers() != 3 {
		t.Fatal("wrong sizes")
	}
	if in.Similarity(0, 0) != 1 {
		t.Errorf("Similarity(0,0) = %v", in.Similarity(0, 0))
	}
	if in.Similarity(0, 2) != 0 {
		t.Errorf("Similarity(0,2) = %v", in.Similarity(0, 2))
	}
	if !in.Conflicting(0, 1) || in.Conflicting(1, 1) {
		t.Error("Conflicting wrong")
	}
	if len(in.EventAttrs()) != 2 || len(in.UserAttrs()) != 3 {
		t.Error("attribute views wrong")
	}
}

func TestConflictingWithNilGraph(t *testing.T) {
	in, err := NewMatrixInstance([]Event{{Cap: 1}}, []User{{Cap: 1}}, nil, [][]float64{{0.4}})
	if err != nil {
		t.Fatal(err)
	}
	if in.Conflicting(0, 0) {
		t.Error("nil conflict graph must mean no conflicts")
	}
}

func TestMatrixInstanceSimilarityLookup(t *testing.T) {
	in, err := NewMatrixInstance(
		[]Event{{Cap: 1}, {Cap: 1}},
		[]User{{Cap: 1}, {Cap: 1}},
		nil,
		[][]float64{{0.1, 0.2}, {0.3, 0.4}},
	)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 2; v++ {
		for u := 0; u < 2; u++ {
			want := [][]float64{{0.1, 0.2}, {0.3, 0.4}}[v][u]
			if got := in.Similarity(v, u); got != want {
				t.Errorf("Similarity(%d,%d) = %v, want %v", v, u, got, want)
			}
		}
	}
}
