package decomp

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/sim"
)

// keptStream drives two arrangers through the same random op stream —
// arrivals with conflicts, cancels, removals, restore round-trips and
// adopted rebalances — and checks that their kept components equal a fresh
// DecomposeContext over the snapshot, and that their kept bound bounds the
// snapshot's relaxation: the eager one after every op (so each read
// extends the graph by one node), the lazy one only now and then (so one
// read extends it by several events and users at once). Every op is
// deterministic, so the two hold the same components and matching. A twin
// of the eager one takes the same ops and reads and must keep the same
// bound bits in every component.
type keptStream struct {
	t                 *testing.T
	rng               *rand.Rand
	eager, lazy, twin *core.Arranger
	euclid            bool
	dirtyE, dirtyU    map[int]bool
	blocks, blkDim    int
	adopted           int // rebalances that replaced the matching
}

func newKeptStream(t *testing.T, seed int64, euclid bool) *keptStream {
	s := &keptStream{t: t, rng: rand.New(rand.NewSource(seed)), euclid: euclid,
		dirtyE: map[int]bool{}, dirtyU: map[int]bool{}, blocks: 4, blkDim: 2}
	f := sim.Cosine()
	if euclid {
		// Points spread over [0, 10]² with maxT 3: only near neighbours
		// share positive similarity, so components form and merge.
		s.blocks = 1
		f = sim.Euclidean(2, 3)
	}
	for _, a := range []**core.Arranger{&s.eager, &s.lazy, &s.twin} {
		var err error
		if *a, err = core.NewArranger(f); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// attrs draws an attribute vector. Cosine vectors fill one community block,
// now and then two (a bridge) or none (a node with sim 0 to everyone);
// euclidean ones are points in [0, 10]².
func (s *keptStream) attrs() sim.Vector {
	v := make(sim.Vector, s.blocks*s.blkDim)
	if s.euclid {
		for i := range v {
			v[i] = 10 * s.rng.Float64()
		}
		return v
	}
	fill := func(k int) {
		for i := k * s.blkDim; i < (k+1)*s.blkDim; i++ {
			v[i] = 0.1 + 0.9*s.rng.Float64()
		}
	}
	switch r := s.rng.Intn(10); {
	case r == 0:
	case r == 1:
		fill(s.rng.Intn(s.blocks))
		fill(s.rng.Intn(s.blocks))
	default:
		fill(s.rng.Intn(s.blocks))
	}
	return v
}

// each applies op to every arranger.
func (s *keptStream) each(op func(a *core.Arranger) error) {
	for _, a := range []*core.Arranger{s.eager, s.lazy, s.twin} {
		if err := op(a); err != nil {
			s.t.Fatal(err)
		}
	}
}

// apply runs op kind k (taken mod 8) on every arranger. A rebalance (5)
// is full when bit 4 of k is set and greedy when bit 5 is, else a dirty
// min-cost flow.
func (s *keptStream) apply(k byte) {
	nv, nu := s.eager.NumEvents(), s.eager.NumUsers()
	switch k % 8 {
	case 0, 1:
		u := core.User{Attrs: s.attrs(), Cap: 1 + s.rng.Intn(3)}
		s.each(func(a *core.Arranger) error { _, err := a.AddUser(u); return err })
		s.dirtyU[nu] = true
	case 2:
		var cf []int
		for w := 0; w < nv; w++ {
			if s.rng.Float64() < 0.3 {
				cf = append(cf, w)
			}
		}
		e := core.Event{Attrs: s.attrs(), Cap: 1 + s.rng.Intn(4)}
		s.each(func(a *core.Arranger) error { _, err := a.AddEvent(e, cf); return err })
		s.dirtyE[nv] = true
	case 3:
		if nv > 0 {
			v := s.rng.Intn(nv)
			s.each(func(a *core.Arranger) error { return a.CancelEvent(v) })
			s.dirtyE[v] = true
		}
	case 4:
		if nu > 0 {
			u := s.rng.Intn(nu)
			s.each(func(a *core.Arranger) error { return a.RemoveUser(u) })
			s.dirtyU[u] = true
		}
	case 5:
		algo := "mincostflow"
		if k&32 != 0 {
			algo = "greedy"
		}
		s.rebalance(algo, k&16 != 0)
	case 6:
		s.eager = restored(s.t, s.eager)
		s.lazy = restored(s.t, s.lazy)
		s.twin = restored(s.t, s.twin)
	case 7:
		s.each(func(a *core.Arranger) error { _, err := a.Rebalance(); return err })
	}
}

// restored round-trips a through Snapshot and RestoreArranger, as a
// restart does; the restored arranger's first read scans the whole graph.
func restored(t *testing.T, a *core.Arranger) *core.Arranger {
	t.Helper()
	in, m, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if a, err = core.RestoreArranger(in, m); err != nil {
		t.Fatal(err)
	}
	return a
}

// rebalance runs the same RebalanceScoped on every arranger and on one
// restored from the eager one's snapshot, and requires the same result and
// the same matching, pair order included. An adopted rebalance must hand
// back the matching it replaced. On each arranger a greedy rebalance must
// leave the kept bound as it was, a dirty flow rebalance must not raise
// it, and a full flow rebalance must make it the snapshot's relaxed
// optimum with no updates left.
func (s *keptStream) rebalance(algo string, full bool) {
	t, ctx := s.t, context.Background()
	fresh := restored(t, s.eager)
	dirtyE, dirtyU := sortedKeys(s.dirtyE), sortedKeys(s.dirtyU)
	var want RebalanceResult
	for i, a := range []*core.Arranger{fresh, s.eager, s.lazy, s.twin} {
		before := a.Matching().Pairs()
		b0, _, _ := keptBound(t, a)
		res, err := RebalanceScoped(ctx, a, algo, dirtyE, dirtyU, full, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		b1, n1, relax := keptBound(t, a)
		switch {
		case algo == "greedy" && b1 != b0:
			t.Fatalf("greedy rebalance moved the kept bound %v to %v", b0, b1)
		case algo != "greedy" && full && (n1 != 0 || !closeRel(b1, relax)):
			t.Fatalf("full flow rebalance left the kept bound at %v with %d updates, relaxation %v", b1, n1, relax)
		case b1 > b0*(1+1e-9):
			t.Fatalf("%s rebalance raised the kept bound %v to %v", algo, b0, b1)
		}
		if res.Adopted != (res.Replaced != nil) || res.Adopted && !reflect.DeepEqual(res.Replaced.Pairs(), before) {
			t.Fatalf("rebalance adopted=%v handed back %v as the matching it replaced, want %v", res.Adopted, res.Replaced, before)
		}
		if i == 0 {
			want = res
			if res.Adopted {
				s.adopted++
			}
		} else if !sameRebalance(res, want) || !reflect.DeepEqual(a.Matching().Pairs(), fresh.Matching().Pairs()) {
			t.Fatalf("kept rebalance %+v differs from a fresh scan's %+v", res, want)
		}
	}
	clear(s.dirtyE)
	clear(s.dirtyU)
}

// sameRebalance compares two rebalance results field by field, the
// matchings they replaced by their pairs in insertion order.
func sameRebalance(a, b RebalanceResult) bool {
	if (a.Replaced == nil) != (b.Replaced == nil) ||
		a.Replaced != nil && !reflect.DeepEqual(a.Replaced.Pairs(), b.Replaced.Pairs()) {
		return false
	}
	a.Replaced, b.Replaced = nil, nil
	return a == b
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for x := range m {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}

// keptBound reads a's kept bound and update count, and the relaxed
// optimum of a's snapshot.
func keptBound(t *testing.T, a *core.Arranger) (bound float64, updates int, relax float64) {
	t.Helper()
	d, err := KeptComponents(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bound, updates = d.KeptBound(a)
	return bound, updates, core.RelaxedUpperBound(in)
}

// check requires a's kept decomposition to equal DecomposeContext over its
// snapshot — component count and members, eventComp, userComp, stranded
// counts, and every component's materialized sub-instance — and its kept
// bound to be at least the snapshot's relaxed optimum, and equal to it
// when the bound took no update since the last flow solves.
func check(t *testing.T, a *core.Arranger, step int) {
	t.Helper()
	ctx := context.Background()
	kept, err := KeptComponents(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := DecomposeContext(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept.Components) != len(ref.Components) ||
		kept.StrandedEvents != ref.StrandedEvents || kept.StrandedUsers != ref.StrandedUsers ||
		!reflect.DeepEqual(kept.eventComp, ref.eventComp) || !reflect.DeepEqual(kept.userComp, ref.userComp) {
		t.Fatalf("step %d: kept %d components (stranded %d/%d, eventComp %v, userComp %v), scan %d (stranded %d/%d, eventComp %v, userComp %v)",
			step, len(kept.Components), kept.StrandedEvents, kept.StrandedUsers, kept.eventComp, kept.userComp,
			len(ref.Components), ref.StrandedEvents, ref.StrandedUsers, ref.eventComp, ref.userComp)
	}
	if b, n := kept.KeptBound(a); b < core.RelaxedUpperBound(in)*(1-1e-9) || n == 0 && !closeRel(b, core.RelaxedUpperBound(in)) {
		t.Fatalf("step %d: kept bound %v with %d updates, relaxation %v", step, b, n, core.RelaxedUpperBound(in))
	}
	if err := kept.materialize(a.Instance(), kept.allIDs()); err != nil {
		t.Fatal(err)
	}
	for i, c := range kept.Components {
		r := ref.Components[i]
		if !reflect.DeepEqual(c.Events, r.Events) || !reflect.DeepEqual(c.Users, r.Users) {
			t.Fatalf("step %d: component %d is (%v, %v), scan has (%v, %v)", step, i, c.Events, c.Users, r.Events, r.Users)
		}
		requireSameSub(t, c.Sub, r.Sub)
	}
}

// requireSameSub requires two sub-instances to agree on nodes, conflict
// adjacency (order included) and every similarity, bit for bit.
func requireSameSub(t *testing.T, a, b *core.Instance) {
	t.Helper()
	if !reflect.DeepEqual(a.Events, b.Events) || !reflect.DeepEqual(a.Users, b.Users) {
		t.Fatalf("sub-instance nodes differ")
	}
	for v := range a.Events {
		if !reflect.DeepEqual(a.Conflicts.Neighbors(v), b.Conflicts.Neighbors(v)) {
			t.Fatalf("event %d conflicts %v, scan's %v", v, a.Conflicts.Neighbors(v), b.Conflicts.Neighbors(v))
		}
		for u := range a.Users {
			if x, y := a.Similarity(v, u), b.Similarity(v, u); x != y {
				t.Fatalf("sim(%d, %d) = %v, scan's %v", v, u, x, y)
			}
		}
	}
}

// sameBounds reads a and b, which took the same ops and reads, and
// requires every component to keep the same bound, bit for bit, and the
// same update count.
func sameBounds(t *testing.T, a, b *core.Arranger, step int) {
	t.Helper()
	ctx := context.Background()
	da, err := KeptComponents(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := KeptComponents(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(da.Components) != len(db.Components) {
		t.Fatalf("step %d: %d components, the twin's %d", step, len(da.Components), len(db.Components))
	}
	for i, c := range da.Components {
		x, n := a.KeptBound(c.Events[0])
		y, m := b.KeptBound(db.Components[i].Events[0])
		if math.Float64bits(x) != math.Float64bits(y) || n != m {
			t.Fatalf("step %d: component %d keeps %v with %d updates, the twin's %v with %d", step, i, x, n, y, m)
		}
	}
}

// runKeptStream applies ops one by one. The eager arranger is checked
// after every op, and compared with its twin; the lazy one is checked
// after ops whose bit 3 is set.
func runKeptStream(t *testing.T, seed int64, euclid bool, ops []byte) *keptStream {
	s := newKeptStream(t, seed, euclid)
	check(t, s.eager, -1)
	for i, k := range ops {
		s.apply(k)
		check(t, s.eager, i)
		sameBounds(t, s.eager, s.twin, i)
		if k&8 != 0 {
			check(t, s.lazy, i)
		}
	}
	check(t, s.lazy, len(ops))
	return s
}

func TestKeptComponentsMatchScan(t *testing.T) {
	adopted := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 120)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		s := runKeptStream(t, seed, seed%4 == 0, ops)
		if s.eager.NumEvents() == 0 || s.eager.NumUsers() == 0 {
			t.Fatalf("seed %d: stream built no instance", seed)
		}
		adopted += s.adopted
	}
	if adopted == 0 {
		t.Fatal("no rebalance adopted a matching")
	}
}

// TestKeptComponentsSeeNewUserBridges pins the column pass: a user who
// arrives after the last read and bridges two communities must merge them.
func TestKeptComponentsSeeNewUserBridges(t *testing.T) {
	arr, err := core.NewArranger(sim.Cosine())
	if err != nil {
		t.Fatal(err)
	}
	for _, attrs := range []sim.Vector{{1, 0}, {0, 1}} {
		if _, err := arr.AddEvent(core.Event{Attrs: attrs, Cap: 1}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := arr.AddUser(core.User{Attrs: attrs, Cap: 1}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	d, err := KeptComponents(ctx, arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Components) != 2 {
		t.Fatalf("got %d components before the bridge, want 2", len(d.Components))
	}
	if _, err := arr.AddUser(core.User{Attrs: sim.Vector{1, 1}, Cap: 1}); err != nil {
		t.Fatal(err)
	}
	if d, err = KeptComponents(ctx, arr); err != nil {
		t.Fatal(err)
	}
	if len(d.Components) != 1 || !reflect.DeepEqual(d.userComp, []int{0, 0, 0}) {
		t.Fatalf("after the bridge: %d components, userComp %v; want 1, [0 0 0]", len(d.Components), d.userComp)
	}
}

// TestKeptBoundBridgeCancelRestore walks the kept bound through its
// rules on two cosine communities: a full flow rebalance makes it exact, a
// bridge user merges the two components' bounds and adds its two best
// pairs, a cancel and a remove leave it as it is but count as updates, and
// a restored arranger prices every node on its first read.
func TestKeptBoundBridgeCancelRestore(t *testing.T) {
	arr, err := core.NewArranger(sim.Cosine())
	if err != nil {
		t.Fatal(err)
	}
	for _, attrs := range []sim.Vector{{1, 0}, {0, 1}} {
		if _, err := arr.AddEvent(core.Event{Attrs: attrs, Cap: 1}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := arr.AddUser(core.User{Attrs: attrs, Cap: 1}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	full := func(a *core.Arranger) {
		t.Helper()
		if _, err := RebalanceScoped(ctx, a, "mincostflow", nil, nil, true, Options{}); err != nil {
			t.Fatal(err)
		}
		if b, n, relax := keptBound(t, a); n != 0 || !closeRel(b, relax) {
			t.Fatalf("after a full flow rebalance: bound %v with %d updates, relaxation %v", b, n, relax)
		}
	}
	want := func(a *core.Arranger, bound float64, updates int) {
		t.Helper()
		if b, n, relax := keptBound(t, a); !closeRel(b, bound) || n != updates || b < relax*(1-1e-9) {
			t.Fatalf("bound %v with %d updates (relaxation %v), want %v with %d", b, n, relax, bound, updates)
		}
	}
	full(arr)
	want(arr, 2, 0)

	// The bridge has sim 1/√2 to both events: its two pairs add √2.
	if _, err := arr.AddUser(core.User{Attrs: sim.Vector{1, 1}, Cap: 2}); err != nil {
		t.Fatal(err)
	}
	want(arr, 2+math.Sqrt2, 1)
	if d, err := KeptComponents(ctx, arr); err != nil || len(d.Components) != 1 {
		t.Fatalf("the bridge left %v components (err %v), want 1", d.Components, err)
	}
	if err := arr.CancelEvent(0); err != nil {
		t.Fatal(err)
	}
	if err := arr.RemoveUser(1); err != nil {
		t.Fatal(err)
	}
	want(arr, 2+math.Sqrt2, 3)
	full(arr)
	want(arr, math.Sqrt2/2, 0)

	// A restored arranger prices each event's best pairs: event 1 (cap 1)
	// its bridge pair; event 0 is canceled.
	arr = restored(t, arr)
	want(arr, math.Sqrt2/2, 1)
	full(arr)
}

// TestKeptComponentsCanceled requires a canceled read to fail and leave the
// graph to be extended by the next one.
func TestKeptComponentsCanceled(t *testing.T) {
	s := newKeptStream(t, 3, false)
	for i := 0; i < 40; i++ {
		s.apply(byte(i % 3))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := KeptComponents(ctx, s.lazy); err == nil {
		t.Fatal("canceled read succeeded")
	}
	check(t, s.lazy, 0)
}

// FuzzKeptComponents runs random op streams — add_event with conflicts,
// add_user, cancel, remove, a RestoreArranger round-trip, adopted
// rebalances checked against a freshly restored twin — over cosine
// community blocks (or euclidean points when euclid is set) and requires
// the kept components to equal DecomposeContext over the snapshot after
// every op, for an arranger read after every op and for one read after
// several (see runKeptStream).
//
// Run it with: go test -run '^$' -fuzz FuzzKeptComponents -fuzztime 20s ./internal/decomp
func FuzzKeptComponents(f *testing.F) {
	f.Add(int64(1), []byte{2, 2, 0, 1, 0, 2, 13, 0, 1, 3, 5, 4, 14, 0, 2, 5, 7, 1, 13}, false)
	f.Add(int64(7), []byte{0, 0, 0, 2, 2, 2, 1, 1, 5, 6, 0, 5, 2, 0, 3, 4, 5}, false)
	f.Add(int64(-3), []byte{2, 0, 2, 0, 1, 1, 5, 2, 0, 6, 5, 4, 4, 3, 0, 5}, true)
	// Full flow (21) and greedy (53) rebalances around bridge users,
	// cancels of both kinds (3, 4) and a restore (6).
	f.Add(int64(48), []byte{2, 2, 2, 0, 0, 0, 0, 21, 0, 1, 0, 1, 8, 3, 4, 53, 21, 6, 0, 1, 21, 2, 8, 53, 4, 3, 21}, false)
	f.Add(int64(34), []byte{2, 0, 2, 0, 0, 21, 1, 0, 1, 0, 2, 3, 21, 4, 6, 53, 0, 0, 21}, true)
	// Four events, eight users, then an event whose conflicts reach into
	// three or more priced components: its read merges their bounds, which
	// the twin must merge in the same order.
	f.Add(int64(439), []byte{2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2}, false)
	f.Fuzz(func(t *testing.T, seed int64, ops []byte, euclid bool) {
		if len(ops) > 200 {
			ops = ops[:200]
		}
		runKeptStream(t, seed, euclid, ops)
	})
}
