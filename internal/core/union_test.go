package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/ebsnlab/geacc/internal/sim"
)

// mergeOrderArranger builds four orthogonal cosine components, event k
// and user k in block k of two dimensions each, whose kept bounds sum to a
// different float in different orders. A bridge event, alone in block 4,
// joins them through four more events there, event 5+k conflicting with
// event k and with the bridge. One read prices event k's component on its
// row, event 5+k joining it through the conflict, so the bridge's row
// merges four priced components.
func mergeOrderArranger(t *testing.T) *Arranger {
	t.Helper()
	a, err := NewArranger(sim.Cosine())
	if err != nil {
		t.Fatal(err)
	}
	block := func(k int, x, y float64) sim.Vector {
		v := make(sim.Vector, 10)
		v[2*k], v[2*k+1] = x, y
		return v
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 4; k++ {
		if _, err := a.AddEvent(Event{Attrs: block(k, 1, 0), Cap: 1}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := a.AddUser(User{Attrs: block(k, 1, rng.Float64()), Cap: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for k := -1; k < 4; k++ {
		var cf []int
		if k >= 0 {
			cf = []int{k, 4}
		}
		if _, err := a.AddEvent(Event{Attrs: block(4, 1, 0), Cap: 1}, cf); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := a.UnionRoots(context.Background()); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestKeptBoundMergeOrder requires the kept bound to be a function of the
// op stream alone: the bridge's row merges the four components' bounds in
// ascending event order, so 200 identical streams, and two arrangers
// restored from one snapshot, give one bit pattern.
func TestKeptBoundMergeOrder(t *testing.T) {
	var want uint64
	for i := 0; i < 200; i++ {
		b, n := mergeOrderArranger(t).KeptBound(4)
		if n != 4 {
			t.Fatalf("stream %d: %d updates, want 4", i, n)
		}
		if i == 0 {
			want = math.Float64bits(b)
		} else if got := math.Float64bits(b); got != want {
			t.Fatalf("stream %d: kept bound %v (%#x), stream 0's %v (%#x)", i, b, got, math.Float64frombits(want), want)
		}
	}

	// A restored arranger's first read repeats the one read above.
	in, m, err := mergeOrderArranger(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		a, err := RestoreArranger(in, m)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.UnionRoots(context.Background()); err != nil {
			t.Fatal(err)
		}
		if b, _ := a.KeptBound(4); math.Float64bits(b) != want {
			t.Fatalf("restore %d: kept bound %v, the stream's %v", i, b, math.Float64frombits(want))
		}
	}
}
