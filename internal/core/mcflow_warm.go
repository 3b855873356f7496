package core

import (
	"context"
	"sync"
	"time"

	"github.com/ebsnlab/geacc/internal/mincostflow"
	"github.com/ebsnlab/geacc/internal/obs"
)

// Warm-started MinCostFlow-GEACC. A dirty-component rebalance re-solves a
// sub-instance that differs from the last solve of the same component by a
// handful of entities. Both paths run the one relaxation, relaxedOptimum
// (mcflow.go). Cold, it computes every similarity row and pushes the whole
// flow from zero; warm, it keeps a FlowState per component — similarity
// rows, node potentials, and the flow support, all in parent-id space — and
// on the next solve
//
//   - reuses rows for surviving events (only arcs whose endpoints the delta
//     touched are re-derived; attrs are immutable and the kernels are
//     deterministic, so reused entries are bit-identical to recomputation),
//   - force-restores the surviving flow units onto the new network, and
//   - repairs optimality with mincostflow.WarmStart + RetreatAbove instead
//     of re-running the full augmentation sweep.
//
// Every reuse step is guarded by id-membership and residual-capacity
// checks, so a stale or partial state degrades performance, never
// correctness; anything the warm repair cannot handle falls back cold
// (ClearFlow + Reset) on the same network. Row reuse additionally relies on
// one system invariant: an entity id is never rebound to different attrs
// (the arranger tombstones on remove/cancel and appends on add), so a
// stored (event id, user id) similarity is a permanent fact. The network
// and the stopping rule are the cold ones — sim > 0 pair arcs only, keep a
// unit iff its marginal cost is < 1 — so Delta, the relaxed matching,
// MaxSum, and the final matching are bit-exact vs the cold path.

// FlowState is the reusable snapshot of one component's relaxed-optimum
// solve, keyed entirely by parent-instance entity ids so it survives
// component renumbering across decompositions.
type FlowState struct {
	events []int     // parent event ids, in sub-instance order
	users  []int     // parent user ids, in sub-instance order
	rows   []float64 // rows[i*len(users)+j] = sim(events[i], users[j])
	pot    []float64 // node potentials in the solve's node layout
	pairs  [][2]int  // (event, user) parent-id pairs carrying flow, all sim > 0

	readers int // solves that got this state and still read it; guarded by WarmCache.mu
}

// WarmCache holds FlowStates for a long-lived instance's components, keyed
// by the component's anchor (its smallest parent event id — stable across
// renumbering; after a merge the anchor component's state still restores
// partially). Bounded, least-recently-used eviction.
//
// A state that put replaces or evicts hands its similarity table to the
// next capture (spare), but only once no solve reads it: get counts the
// solve as a reader until its put or done. A rebalance solves its
// components in parallel, and they have distinct anchors, but an eviction
// can still pick the anchor of a component being solved; the count keeps
// that component's table out of the spare until it has finished reading.
type WarmCache struct {
	mu      sync.Mutex
	max     int
	entries map[int]*FlowState
	order   []int     // LRU order, least recent first
	spare   []float64 // a recycled similarity table no solve reads, or nil
}

// DefaultWarmCacheEntries bounds a WarmCache when the caller passes <= 0.
const DefaultWarmCacheEntries = 256

// NewWarmCache returns a WarmCache holding at most max states (<= 0 means
// DefaultWarmCacheEntries).
func NewWarmCache(max int) *WarmCache {
	if max <= 0 {
		max = DefaultWarmCacheEntries
	}
	return &WarmCache{max: max, entries: make(map[int]*FlowState)}
}

// get returns anchor's state, or nil, and counts the caller as its reader
// until the caller's put or done.
func (wc *WarmCache) get(anchor int) *FlowState {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	st := wc.entries[anchor]
	if st != nil {
		st.readers++
		wc.touch(anchor)
	}
	return st
}

// put stores st as anchor's state and ends the caller's read of prev, the
// state its get returned (nil on a miss).
func (wc *WarmCache) put(anchor int, st, prev *FlowState) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	wc.release(prev)
	if old, ok := wc.entries[anchor]; ok {
		wc.entries[anchor] = st
		wc.touch(anchor)
		wc.recycle(old)
		return
	}
	for len(wc.entries) >= wc.max && len(wc.order) > 0 {
		wc.recycle(wc.entries[wc.order[0]])
		delete(wc.entries, wc.order[0])
		wc.order = wc.order[1:]
	}
	wc.entries[anchor] = st
	wc.order = append(wc.order, anchor)
}

// done ends the caller's read of prev without storing a state.
func (wc *WarmCache) done(prev *FlowState) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	wc.release(prev)
}

// release ends one read of st (nil is a no-op); wc.mu must be held.
func (wc *WarmCache) release(st *FlowState) {
	if st != nil {
		st.readers--
	}
}

// recycle keeps the table of old, a state leaving the cache, as the spare
// when no solve reads it and it is larger than the current spare; wc.mu
// must be held.
func (wc *WarmCache) recycle(old *FlowState) {
	if old.readers == 0 && cap(old.rows) > cap(wc.spare) {
		wc.spare, old.rows = old.rows, nil
	}
}

// table returns an n-entry similarity table for a capture: the spare when
// it is large enough, else a fresh one. The caller rewrites every entry.
func (wc *WarmCache) table(n int) []float64 {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if cap(wc.spare) < n {
		return make([]float64, n)
	}
	t := wc.spare[:n]
	wc.spare = nil
	return t
}

// touch moves anchor to the most-recent end; wc.mu must be held.
func (wc *WarmCache) touch(anchor int) {
	for i, a := range wc.order {
		if a == anchor {
			wc.order = append(append(wc.order[:i:i], wc.order[i+1:]...), anchor)
			return
		}
	}
}

// Len returns the number of cached component states.
func (wc *WarmCache) Len() int {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return len(wc.entries)
}

// MinCostFlowWarmCtx runs MinCostFlow-GEACC on a component sub-instance,
// consulting and refreshing wc. events and users are the component's parent
// ids in sub-instance order (decomp.Component's Events/Users). A nil cache
// or an id-length mismatch degrades to the cold path. Results — the final
// matching and RelaxedMaxSum alike — are bit-exact vs MinCostFlowCtx.
func MinCostFlowWarmCtx(ctx context.Context, in *Instance, events, users []int, wc *WarmCache) (*FlowResult, error) {
	start := time.Now()
	sp := obs.RecorderFrom(ctx).Start("solve/mincostflow-warm")
	sp.Annotate("events", int64(in.NumEvents()))
	sp.Annotate("users", int64(in.NumUsers()))
	res, err := minCostFlowWarmCtx(ctx, in, events, users, wc)
	sp.End()
	observeSolve("mincostflow", time.Since(start), err)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func minCostFlowWarmCtx(ctx context.Context, in *Instance, events, users []int, wc *WarmCache) (*FlowResult, error) {
	warmable := wc != nil && len(events) == in.NumEvents() && len(users) == in.NumUsers() && len(events) > 0
	if !warmable {
		wc = nil
	}
	var prev *FlowState
	if wc != nil {
		mcflowWarmAttempts.Inc()
		prev = wc.get(componentAnchor(events))
	}
	sp := obs.RecorderFrom(ctx).Start("mincostflow/relax")
	res, st, err := relaxedOptimum(ctx, in, events, users, prev, wc)
	sp.End()
	if wc != nil {
		if st != nil {
			wc.put(componentAnchor(events), st, prev)
		} else {
			wc.done(prev) // canceled, or a side is empty
		}
	}
	if err != nil {
		return nil, err
	}
	sp = obs.RecorderFrom(ctx).Start("mincostflow/resolve")
	res.Matching = resolveConflicts(in, res.Relaxed)
	sp.End()
	return res, nil
}

// componentAnchor is the smallest parent event id of a component.
func componentAnchor(events []int) int {
	anchor := events[0]
	for _, e := range events[1:] {
		if e < anchor {
			anchor = e
		}
	}
	return anchor
}

// warmIndex locates a previous FlowState's rows, columns and potentials
// for one warm solve: events by parent id, users by their position in the
// new sub-instance, resolved once for every row.
type warmIndex struct {
	prev     *FlowState
	eventRow map[int]int // parent event id -> row in prev.rows
	newUser  map[int]int // parent user id -> sub-instance user
	userCol  []int       // sub-instance user -> column in prev.rows, or -1
}

// newWarmIndex indexes prev for a solve over the given parent user ids,
// keeping the user columns in userCol (len(users) long).
func newWarmIndex(prev *FlowState, users, userCol []int) *warmIndex {
	w := &warmIndex{
		prev:     prev,
		eventRow: make(map[int]int, len(prev.events)),
		newUser:  make(map[int]int, len(users)),
		userCol:  userCol,
	}
	for i, e := range prev.events {
		w.eventRow[e] = i
	}
	for u, id := range users {
		w.newUser[id] = u
		w.userCol[u] = -1
	}
	for j, id := range prev.users {
		if u, ok := w.newUser[id]; ok {
			w.userCol[u] = j
		}
	}
	return w
}

// gatherRow fills row with sub-instance event v's similarities when the
// event (parent id event) survived from the previous solve: surviving
// users' entries are copied (bit-identical: attrs are immutable, kernels
// deterministic) and only new users are computed. It reports false, leaving
// row untouched, when the event is new.
func (w *warmIndex) gatherRow(in *Instance, v, event int, row []float64) bool {
	ov, ok := w.eventRow[event]
	if !ok {
		return false
	}
	onu := len(w.prev.users)
	oldRow := w.prev.rows[ov*onu : (ov+1)*onu]
	for u, oc := range w.userCol {
		if oc >= 0 {
			row[u] = oldRow[oc]
		} else {
			row[u] = in.Similarity(v, u)
		}
	}
	return true
}

// restore force-pushes the previous flow support onto the freshly built
// network g wherever both endpoints survived, the pair still has an arc,
// and residual capacity allows (a delta may have shrunk caps). It then
// repairs optimality with WarmStart, seeded from the previous potentials,
// and retreats the restored units whose marginal cost reached 1 — units
// the cold sweep would never have pushed. A repair that does not converge
// falls back cold (ClearFlow + Reset) on the same network. sv must already
// be acquired on g, so its Reset saw a flow-free network.
func (w *warmIndex) restore(ctx context.Context, g *mincostflow.Graph, sv *mincostflow.Solver, pairArc []mincostflow.ArcID, events, users []int) error {
	nv, nu := len(events), len(users)
	s, t := 0, 1+nv+nu
	newEventIdx := make(map[int]int, nv)
	for v, e := range events {
		newEventIdx[e] = v
	}
	var restored int64
	for _, p := range w.prev.pairs {
		v, okv := newEventIdx[p[0]]
		u, oku := w.newUser[p[1]]
		if !okv || !oku {
			continue
		}
		pa := pairArc[v*nu+u]
		srcA := mincostflow.ArcID(2 * v)
		sinkA := mincostflow.ArcID(2 * (nv + u))
		if pa >= 0 && g.Residual(srcA) > 0 && g.Residual(pa) > 0 && g.Residual(sinkA) > 0 {
			g.PushFlow(srcA, 1)
			g.PushFlow(pa, 1)
			g.PushFlow(sinkA, 1)
			restored++
		}
	}
	if restored == 0 {
		return nil
	}

	prev := w.prev
	pot := make([]float64, nv+nu+2)
	onv, onu := len(prev.events), len(prev.users)
	pot[s] = prev.pot[0]
	pot[t] = prev.pot[onv+onu+1]
	for v, e := range events {
		if ov, ok := w.eventRow[e]; ok {
			pot[1+v] = prev.pot[1+ov]
		}
	}
	for u, oc := range w.userCol {
		if oc >= 0 {
			pot[1+nv+u] = prev.pot[1+onv+oc]
		}
	}
	ws := sv.WarmStart(g, s, t, pot)
	mcflowWarmCycles.Add(int64(ws.CyclesCanceled))
	mcflowWarmBFPasses.Add(int64(ws.Passes))
	if !ws.OK {
		mcflowWarmColdFallbacks.Inc()
		g.ClearFlow()
		sv.Reset(g, s, t)
		return nil
	}
	mcflowWarmHits.Inc()
	mcflowWarmRestoredUnits.Add(ws.RestoredFlow)
	for {
		if err := ctx.Err(); err != nil {
			observeFlowWork(sv)
			return err
		}
		if _, ok := sv.RetreatAbove(1); !ok {
			return nil
		}
	}
}
