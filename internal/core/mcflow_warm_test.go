package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/sim"
)

// deltaUniverse is a pool of entities with immutable attrs (like a
// long-lived arranger instance) from which component sub-instances are
// drawn; tests mutate membership and capacities to simulate delta streams.
type deltaUniverse struct {
	d          int
	eventAttrs []sim.Vector
	userAttrs  []sim.Vector
	eventCaps  []int
	userCaps   []int
	cf         *conflict.Graph // over the full event pool
	simFunc    sim.Func
}

func newDeltaUniverse(rng *rand.Rand, ne, nuPool, d int) *deltaUniverse {
	const maxT = 100.0
	u := &deltaUniverse{d: d, simFunc: sim.Euclidean(d, maxT)}
	for i := 0; i < ne; i++ {
		u.eventAttrs = append(u.eventAttrs, randVec(rng, d, maxT))
		u.eventCaps = append(u.eventCaps, 1+rng.Intn(3))
	}
	for i := 0; i < nuPool; i++ {
		u.userAttrs = append(u.userAttrs, randVec(rng, d, maxT))
		u.userCaps = append(u.userCaps, 1+rng.Intn(3))
	}
	u.cf = conflict.Random(rng, ne, 0.2)
	return u
}

// sub materializes the component sub-instance for the given member ids.
func (uni *deltaUniverse) sub(events, users []int) *Instance {
	evs := make([]Event, len(events))
	for i, e := range events {
		evs[i] = Event{Attrs: uni.eventAttrs[e], Cap: uni.eventCaps[e]}
	}
	usrs := make([]User, len(users))
	for i, id := range users {
		usrs[i] = User{Attrs: uni.userAttrs[id], Cap: uni.userCaps[id]}
	}
	var pairs [][2]int
	for i, a := range events {
		for j, b := range events[i+1:] {
			if uni.cf.Conflicting(a, b) {
				pairs = append(pairs, [2]int{i, i + 1 + j})
			}
		}
	}
	in, err := NewInstance(evs, usrs, conflict.FromPairs(len(events), pairs), uni.simFunc)
	if err != nil {
		panic(err)
	}
	return in
}

// newBridgedUniverse is a community-structured cosine pool, the shape of
// the clustered-bridged workloads: entity i belongs to community i mod k and
// draws positive attrs only in that community's block, so cross-community
// similarity is exactly 0; every fifth user of a community also draws small
// values in the next community's block, bridging the two.
func newBridgedUniverse(rng *rand.Rand, ne, nuPool, k, block int) *deltaUniverse {
	u := &deltaUniverse{d: k * block, simFunc: sim.Cosine()}
	attrs := func(c int, w float64, v sim.Vector) sim.Vector {
		if v == nil {
			v = make(sim.Vector, k*block)
		}
		for i := c * block; i < (c+1)*block; i++ {
			v[i] = w * (0.1 + 0.9*rng.Float64())
		}
		return v
	}
	for i := 0; i < ne; i++ {
		u.eventAttrs = append(u.eventAttrs, attrs(i%k, 1, nil))
		u.eventCaps = append(u.eventCaps, 1+rng.Intn(3))
	}
	for i := 0; i < nuPool; i++ {
		a := attrs(i%k, 1, nil)
		if (i/k)%5 == 0 {
			attrs((i%k+1)%k, 0.02, a)
		}
		u.userAttrs = append(u.userAttrs, a)
		u.userCaps = append(u.userCaps, 1+rng.Intn(3))
	}
	u.cf = conflict.Random(rng, ne, 0.2)
	return u
}

// TestWarmFlowMatchesColdAcrossDeltaStreams is the tentpole property: a
// warm-started dirty-component solve must be bit-exact vs the cold path —
// same Delta, same RelaxedMaxSum, same final matching — across long random
// delta streams (entity joins, leaves, and capacity changes), over dense
// Euclidean universes and over bridged cosine ones where most pairs have
// similarity 0 and so no arc.
func TestWarmFlowMatchesColdAcrossDeltaStreams(t *testing.T) {
	const streams, steps = 10, 25 // 250 delta solves per universe kind
	for s := 0; s < streams; s++ {
		s := s
		t.Run(fmt.Sprintf("stream%d", s), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + s)))
			runWarmColdStream(t, rng, newDeltaUniverse(rng, 16, 40, 4), steps)
		})
		t.Run(fmt.Sprintf("bridged%d", s), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(2000 + s)))
			runWarmColdStream(t, rng, newBridgedUniverse(rng, 16, 40, 4, 3), steps)
		})
	}
}

// runWarmColdStream drives one component of uni through steps random
// deltas, solving each step cold and warm and requiring identical results.
func runWarmColdStream(t *testing.T, rng *rand.Rand, uni *deltaUniverse, steps int) {
	t.Helper()
	wc := NewWarmCache(8)
	events := []int{0, 1, 2, 3}
	users := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for step := 0; step < steps; step++ {
		in := uni.sub(events, users)
		cold, err := minCostFlowCtx(context.Background(), in, FlowOptions{})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := minCostFlowWarmCtx(context.Background(), in, events, users, wc)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameFlowResult(warm, cold); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		mustValidate(t, in, warm.Matching, "mincostflow-warm")

		// Mutate the component for the next step.
		switch rng.Intn(5) {
		case 0: // event joins
			if next := pick(rng, len(uni.eventAttrs), events); next >= 0 {
				events = insertSorted(events, next)
			}
		case 1: // event leaves (tombstone-style: also exercised by cap 0 below)
			if len(events) > 2 {
				events = removeAt(events, rng.Intn(len(events)))
			}
		case 2: // user joins
			if next := pick(rng, len(uni.userAttrs), users); next >= 0 {
				users = insertSorted(users, next)
			}
		case 3: // user leaves
			if len(users) > 2 {
				users = removeAt(users, rng.Intn(len(users)))
			}
		case 4: // capacity change (0 simulates a canceled event kept as a tombstone)
			if rng.Intn(2) == 0 {
				uni.eventCaps[events[rng.Intn(len(events))]] = rng.Intn(4)
			} else {
				uni.userCaps[users[rng.Intn(len(users))]] = 1 + rng.Intn(3)
			}
		}
	}
}

// sameFlowResult reports how a warm result differs from the cold one, bit
// for bit: Δ, RelaxedMaxSum, the relaxed pairs, and the final matching.
func sameFlowResult(warm, cold *FlowResult) error {
	if warm.Delta != cold.Delta {
		return fmt.Errorf("warm Delta %d != cold %d", warm.Delta, cold.Delta)
	}
	if math.Float64bits(warm.RelaxedMaxSum) != math.Float64bits(cold.RelaxedMaxSum) {
		return fmt.Errorf("warm RelaxedMaxSum %v != cold %v", warm.RelaxedMaxSum, cold.RelaxedMaxSum)
	}
	if math.Float64bits(warm.Matching.MaxSum()) != math.Float64bits(cold.Matching.MaxSum()) {
		return fmt.Errorf("warm MaxSum %v != cold %v", warm.Matching.MaxSum(), cold.Matching.MaxSum())
	}
	for _, m := range [][2]*Matching{{warm.Relaxed, cold.Relaxed}, {warm.Matching, cold.Matching}} {
		wp, cp := m[0].SortedPairs(), m[1].SortedPairs()
		if len(wp) != len(cp) {
			return fmt.Errorf("warm %d pairs != cold %d", len(wp), len(cp))
		}
		for i := range wp {
			if wp[i] != cp[i] {
				return fmt.Errorf("pair %d differs: warm %+v cold %+v", i, wp[i], cp[i])
			}
		}
	}
	return nil
}

// pick returns a pool id not already in members, or -1.
func pick(rng *rand.Rand, poolSize int, members []int) int {
	in := make(map[int]bool, len(members))
	for _, m := range members {
		in[m] = true
	}
	var free []int
	for i := 0; i < poolSize; i++ {
		if !in[i] {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return -1
	}
	return free[rng.Intn(len(free))]
}

func insertSorted(s []int, x int) []int {
	s = append(s, x)
	for i := len(s) - 1; i > 0 && s[i] < s[i-1]; i-- {
		s[i], s[i-1] = s[i-1], s[i]
	}
	return s
}

func removeAt(s []int, i int) []int { return append(s[:i:i], s[i+1:]...) }

// TestWarmRepairCounters re-solves warm after a user joins who is more
// similar to the only event than the user it holds: the restored flow then
// closes a negative residual cycle, and the repair's cancelation must move
// geacc_mcflow_warm_cycles_canceled_total and
// geacc_mcflow_warm_bf_passes_total.
func TestWarmRepairCounters(t *testing.T) {
	events := []Event{{Attrs: sim.Vector{0}, Cap: 1}}
	far := User{Attrs: sim.Vector{5}, Cap: 1}
	near := User{Attrs: sim.Vector{1}, Cap: 1}
	inst := func(users ...User) *Instance {
		in, err := NewInstance(events, users, conflict.FromPairs(1, nil), sim.Euclidean(1, 10))
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	wc := NewWarmCache(2)
	if _, err := minCostFlowWarmCtx(context.Background(), inst(far), []int{0}, []int{0}, wc); err != nil {
		t.Fatal(err)
	}
	cycles0, passes0 := mcflowWarmCycles.Value(), mcflowWarmBFPasses.Value()
	in := inst(far, near)
	warm, err := minCostFlowWarmCtx(context.Background(), in, []int{0}, []int{0, 1}, wc)
	if err != nil {
		t.Fatal(err)
	}
	if dc, dp := mcflowWarmCycles.Value()-cycles0, mcflowWarmBFPasses.Value()-passes0; dc < 1 || dp < 1 {
		t.Fatalf("warm re-solve moved cycles_canceled by %d and bf_passes by %d, want both >= 1", dc, dp)
	}
	if !warm.Matching.Contains(0, 1) {
		t.Fatalf("warm re-solve kept %v, want the nearer user 1", warm.Matching.SortedPairs())
	}
	cold, err := minCostFlowCtx(context.Background(), in, FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameFlowResult(warm, cold); err != nil {
		t.Fatal(err)
	}
}

// TestWarmFlowSurvivesGarbageState pins the safety property: a stale or
// corrupt cached FlowState must never change the result, only (at worst)
// the speed. We plant states with wrong pairs and wild potentials and check
// warm output still equals cold.
func TestWarmFlowSurvivesGarbageState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	uni := newDeltaUniverse(rng, 8, 16, 4)
	events := []int{0, 1, 2, 3, 4}
	users := []int{0, 1, 2, 3, 4, 5, 6, 7}
	in := uni.sub(events, users)
	cold, err := minCostFlowCtx(context.Background(), in, FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Garbage within the state contract (rows keyed by ids are always
	// correct because the arranger never rebinds an id to new attrs — so
	// the state's event/user id lists point at unrelated pool ids here):
	// pairs referencing arbitrary live and dead entities, potentials far
	// from valid.
	rows := make([]float64, 3*4)
	for i := range rows {
		rows[i] = rng.Float64()
	}
	garbage := &FlowState{
		events: []int{99, 100, 101}, // none present in the component: no row reuse
		users:  []int{97, 98, 103, 104},
		rows:   rows,
		pot:    []float64{1000, -1000, 3, 0, 42, -7, 9, 9, 9},
		pairs:  [][2]int{{0, 1}, {2, 3}, {99, 98}, {0, 5}, {2, 1}, {4, 0}, {1, 1}},
	}
	wc := NewWarmCache(4)
	wc.put(componentAnchor(events), garbage, nil)
	warm, err := minCostFlowWarmCtx(context.Background(), in, events, users, wc)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Matching.MaxSum() != cold.Matching.MaxSum() || warm.Delta != cold.Delta {
		t.Fatalf("garbage state changed result: warm (%v, %d) cold (%v, %d)",
			warm.Matching.MaxSum(), warm.Delta, cold.Matching.MaxSum(), cold.Delta)
	}
}

func TestWarmCacheEviction(t *testing.T) {
	wc := NewWarmCache(3)
	for i := 0; i < 10; i++ {
		wc.put(i, &FlowState{}, nil)
	}
	if wc.Len() != 3 {
		t.Fatalf("cache holds %d states, want 3", wc.Len())
	}
	// 7, 8, 9 are the survivors; touching 7 then inserting evicts 8 next.
	if wc.get(7) == nil {
		t.Fatal("expected anchor 7 resident")
	}
	wc.put(10, &FlowState{}, nil)
	if wc.get(8) != nil {
		t.Fatal("anchor 8 should have been evicted (LRU)")
	}
	if wc.get(7) == nil || wc.get(9) == nil || wc.get(10) == nil {
		t.Fatal("LRU kept the wrong anchors")
	}
}

// BenchmarkMcflowWarmDelta measures a 1-entity-delta re-solve with a warm
// cache vs the cold path on the same component shape; CI runs it as the
// warm-start smoke benchmark.
func BenchmarkMcflowWarmDelta(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	uni := newDeltaUniverse(rng, 30, 400, 8)
	events := make([]int, 30)
	for i := range events {
		events[i] = i
	}
	usersA := make([]int, 399)
	for i := range usersA {
		usersA[i] = i
	}
	usersB := append(append([]int(nil), usersA...), 399)
	inA, inB := uni.sub(events, usersA), uni.sub(events, usersB)

	b.Run("warm", func(b *testing.B) {
		wc := NewWarmCache(4)
		if _, err := MinCostFlowWarmCtx(context.Background(), inA, events, usersA, wc); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in, us := inB, usersB
			if i%2 == 1 {
				in, us = inA, usersA
			}
			if _, err := MinCostFlowWarmCtx(context.Background(), in, events, us, wc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in := inB
			if i%2 == 1 {
				in = inA
			}
			if _, err := MinCostFlowCtx(context.Background(), in, FlowOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWarmCacheRecyclesUnderConcurrency runs warm delta streams on four
// components from four goroutines, two of them on the same anchor, through
// one cache that holds only two states: every put evicts a state another
// goroutine may still be reading. The recycled tables must never reach a
// solve while their state is read (-race), and every warm result must equal
// the cold one.
func TestWarmCacheRecyclesUnderConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	uni := newDeltaUniverse(rng, 12, 60, 3)
	wc := NewWarmCache(2)
	var wg sync.WaitGroup
	for g, events := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}, {0, 1, 2, 3}} {
		wg.Add(1)
		go func(g int, events []int) {
			defer wg.Done()
			for step := 0; step < 40; step++ {
				users := make([]int, 0, 20)
				for u := g % 3; u < 60 && len(users) < 15+step%6; u += 1 + (step+u)%3 {
					users = append(users, u)
				}
				in := uni.sub(events, users)
				warm, err := minCostFlowWarmCtx(context.Background(), in, events, users, wc)
				if err != nil {
					t.Error(err)
					return
				}
				cold, err := minCostFlowCtx(context.Background(), in, FlowOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if err := sameFlowResult(warm, cold); err != nil {
					t.Errorf("goroutine %d step %d: %v", g, step, err)
					return
				}
			}
		}(g, events)
	}
	wg.Wait()
}

// TestWarmCacheReusesReplacedTable checks that a warm re-solve of one
// component takes the table of the state its previous put replaced, not a
// fresh one.
func TestWarmCacheReusesReplacedTable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	uni := newDeltaUniverse(rng, 6, 30, 3)
	events, usersA := []int{0, 1, 2, 3, 4, 5}, []int{0, 2, 4, 6, 8, 10, 12}
	usersB := append(append([]int(nil), usersA...), 14)
	wc := NewWarmCache(4)
	solve := func(users []int) *FlowState {
		if _, err := minCostFlowWarmCtx(context.Background(), uni.sub(events, users), events, users, wc); err != nil {
			t.Fatal(err)
		}
		return wc.entries[componentAnchor(events)]
	}
	first := solve(usersB)
	firstTable := &first.rows[:1][0]
	solve(usersA) // replaces first: its table becomes the spare
	if third := solve(usersB); &third.rows[:1][0] != firstTable {
		t.Fatal("the third solve allocated a table; want the one the second solve's put replaced")
	}
}
