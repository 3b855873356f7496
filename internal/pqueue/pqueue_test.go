package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestIndexedMinHeapBasicOrder(t *testing.T) {
	h := NewIndexedMinHeap(5)
	h.Push(0, 3.0)
	h.Push(1, 1.0)
	h.Push(2, 2.0)
	wantKeys := []int{1, 2, 0}
	wantPrio := []float64{1, 2, 3}
	for i := range wantKeys {
		k, p := h.Pop()
		if k != wantKeys[i] || p != wantPrio[i] {
			t.Fatalf("pop %d = (%d, %v), want (%d, %v)", i, k, p, wantKeys[i], wantPrio[i])
		}
	}
	if h.Len() != 0 {
		t.Fatal("heap not empty after draining")
	}
}

// contains reports whether key is currently in the heap.
func (h *IndexedMinHeap) contains(key int) bool { return h.pos[key] >= 0 }

// priority returns the current priority of key, which must be in the heap.
func (h *IndexedMinHeap) priority(key int) float64 { return h.entries[h.pos[key]].prio }

// TestIndexedMinHeapDecreaseKey lowers a deep key's priority with Push and
// checks that it rises past the others, and that a raise is ignored.
func TestIndexedMinHeapDecreaseKey(t *testing.T) {
	h := NewIndexedMinHeap(4)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(2, 30)
	h.Push(2, 5)
	if k, p := h.Pop(); k != 2 || p != 5 {
		t.Fatalf("got (%d, %v), want (2, 5)", k, p)
	}
	// Raising a priority must be ignored.
	h.Push(1, 99)
	if k, _ := h.Pop(); k != 0 {
		t.Fatalf("increase-key was not ignored: popped %d", k)
	}
}

func TestIndexedMinHeapPushExistingRelaxes(t *testing.T) {
	h := NewIndexedMinHeap(3)
	h.Push(0, 10)
	h.Push(0, 4) // should relax
	h.Push(0, 7) // should be ignored
	if k, p := h.Pop(); k != 0 || p != 4 {
		t.Fatalf("got (%d, %v), want (0, 4)", k, p)
	}
	if h.Len() != 0 {
		t.Fatal("duplicate push created extra entries")
	}
}

func TestIndexedMinHeapContainsAndReset(t *testing.T) {
	h := NewIndexedMinHeap(3)
	h.Push(1, 1)
	if !h.contains(1) || h.contains(0) {
		t.Fatal("Contains wrong")
	}
	h.Reset()
	if h.Len() != 0 || h.contains(1) {
		t.Fatal("Reset did not clear heap")
	}
	// Heap must be reusable after Reset.
	h.Push(2, 9)
	if k, _ := h.Pop(); k != 2 {
		t.Fatal("heap unusable after Reset")
	}
}

func TestIndexedMinHeapPopEmptyPanics(t *testing.T) {
	h := NewIndexedMinHeap(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty Pop")
		}
	}()
	h.Pop()
}

func TestIndexedMinHeapSortsRandomInput(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		h := NewIndexedMinHeap(n)
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			want[i] = rng.Float64()
			h.Push(i, want[i])
		}
		sort.Float64s(want)
		for i := 0; i < n; i++ {
			_, p := h.Pop()
			if p != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIndexedMinHeapDijkstraPattern(t *testing.T) {
	// Simulate the relax-heavy access pattern of Dijkstra: repeated pushes
	// of the same keys with decreasing priorities, interleaved with pops.
	rng := rand.New(rand.NewSource(99))
	const n = 100
	h := NewIndexedMinHeap(n)
	best := make([]float64, n)
	inHeap := make([]bool, n)
	for i := range best {
		best[i] = 1e18
	}
	for step := 0; step < 5000; step++ {
		k := rng.Intn(n)
		p := rng.Float64()
		if p < best[k] {
			best[k] = p
		}
		h.Push(k, p)
		inHeap[k] = true
		if step%7 == 0 && h.Len() > 0 {
			key, prio := h.Pop()
			if prio != best[key] {
				t.Fatalf("popped priority %v != best known %v for key %d", prio, best[key], key)
			}
			best[key] = 1e18
			inHeap[key] = false
		}
	}
	prev := -1.0
	for h.Len() > 0 {
		_, p := h.Pop()
		if p < prev {
			t.Fatalf("pop order not sorted: %v after %v", p, prev)
		}
		prev = p
	}
}

func TestIndexedMinHeapPriority(t *testing.T) {
	h := NewIndexedMinHeap(3)
	h.Push(1, 4.5)
	if got := h.priority(1); got != 4.5 {
		t.Fatalf("Priority = %v", got)
	}
	h.Push(1, 2.5)
	if got := h.priority(1); got != 2.5 {
		t.Fatalf("Priority after decrease = %v", got)
	}
}

// TestIndexedMinHeapMatchesModel interleaves every operation at random
// against a map from key to priority: Push of new keys and of present ones
// (lower and higher), Pop, Reset and Resize. Every pop must return a
// minimum priority of the model, and after every step Len, membership,
// priorities and pos must agree with it.
func TestIndexedMinHeapMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 40
	h := NewIndexedMinHeap(n)
	model := map[int]float64{}
	// Few distinct priorities, so ties are common.
	prio := func() float64 { return float64(rng.Intn(25)) / 4 }
	for step := 0; step < 200000; step++ {
		switch op := rng.Intn(100); {
		case op < 55:
			k, p := rng.Intn(n), prio()
			if old, ok := model[k]; !ok || p < old {
				model[k] = p
			}
			h.Push(k, p)
		case op < 90:
			if len(model) == 0 {
				continue
			}
			k, p := h.Pop()
			want, ok := model[k]
			if !ok || p != want {
				t.Fatalf("step %d: popped (%d, %v), model has %v, %v", step, k, p, want, ok)
			}
			for mk, mp := range model {
				if mp < p {
					t.Fatalf("step %d: popped priority %v but key %d has %v", step, p, mk, mp)
				}
			}
			delete(model, k)
		case op < 95:
			h.Reset()
			clear(model)
		default:
			n = 1 + rng.Intn(80)
			h.Resize(n)
			clear(model)
		}
		if h.Len() != len(model) {
			t.Fatalf("step %d: Len %d, model %d", step, h.Len(), len(model))
		}
		for k := range n {
			p, in := model[k]
			if h.contains(k) != in {
				t.Fatalf("step %d: Contains(%d) = %v, model %v", step, k, !in, in)
			}
			if in && h.priority(k) != p {
				t.Fatalf("step %d: priority(%d) = %v, model %v", step, k, h.priority(k), p)
			}
		}
		for i, e := range h.entries {
			if int(h.pos[e.key]) != i {
				t.Fatalf("step %d: pos[%d] = %d, entry sits at %d", step, e.key, h.pos[e.key], i)
			}
			if parent := (i - 1) / 2; i > 0 && e.prio < h.entries[parent].prio {
				t.Fatalf("step %d: entry %d beats its parent", step, i)
			}
		}
	}
}
