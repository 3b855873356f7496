package core

import (
	"context"
	"math"
	"sync"
	"time"

	"github.com/ebsnlab/geacc/internal/mincostflow"
	"github.com/ebsnlab/geacc/internal/obs"
)

// Warm-started MinCostFlow-GEACC. A dirty-component rebalance re-solves a
// sub-instance that differs from the last solve of the same component by a
// handful of entities. The cold path rebuilds every arc from fresh
// similarity rows and re-pushes the whole flow from zero; the warm path
// keeps a FlowState per component — similarity rows, node potentials, and
// the flow support, all in parent-id space — and on the next solve
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
// stored (event id, user id) similarity is a permanent fact. The stopping rule is the cold
// one — keep a unit iff its marginal cost is < 1 — so Delta, the relaxed
// matching, MaxSum, and the final matching are bit-exact vs the cold path.

// FlowState is the reusable snapshot of one component's relaxed-optimum
// solve, keyed entirely by parent-instance entity ids so it survives
// component renumbering across decompositions.
type FlowState struct {
	events []int       // parent event ids, in sub-instance order
	users  []int       // parent user ids, in sub-instance order
	rows   [][]float64 // rows[i][j] = sim(events[i], users[j])
	pot    []float64   // node potentials in the solve's node layout
	pairs  [][2]int    // (event, user) parent-id pairs carrying flow, sim-0 included
}

// WarmCache holds FlowStates for a long-lived instance's components, keyed
// by the component's anchor (its smallest parent event id — stable across
// renumbering; after a merge the anchor component's state still restores
// partially). Bounded, least-recently-used eviction.
type WarmCache struct {
	mu      sync.Mutex
	max     int
	entries map[int]*FlowState
	order   []int // LRU order, least recent first
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

func (wc *WarmCache) get(anchor int) *FlowState {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	st := wc.entries[anchor]
	if st != nil {
		wc.touch(anchor)
	}
	return st
}

func (wc *WarmCache) put(anchor int, st *FlowState) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if _, ok := wc.entries[anchor]; ok {
		wc.entries[anchor] = st
		wc.touch(anchor)
		return
	}
	for len(wc.entries) >= wc.max && len(wc.order) > 0 {
		delete(wc.entries, wc.order[0])
		wc.order = wc.order[1:]
	}
	wc.entries[anchor] = st
	wc.order = append(wc.order, anchor)
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
	var prev *FlowState
	if warmable {
		mcflowWarmAttempts.Inc()
		prev = wc.get(componentAnchor(events))
	}
	sp := obs.RecorderFrom(ctx).Start("mincostflow/relax")
	res, st, err := relaxedOptimumWarm(ctx, in, events, users, prev, warmable)
	sp.End()
	if err != nil {
		return nil, err
	}
	if warmable && st != nil {
		wc.put(componentAnchor(events), st)
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

// relaxedOptimumWarm is relaxedOptimumCtx with state capture and optional
// warm start from a previous FlowState. It mirrors the cold function's
// network layout, augmentation rule, and readback order exactly.
func relaxedOptimumWarm(ctx context.Context, in *Instance, events, users []int, prev *FlowState, capture bool) (*FlowResult, *FlowState, error) {
	mcflowRuns.Inc()
	nv, nu := in.NumEvents(), in.NumUsers()
	res := &FlowResult{Relaxed: NewMatching()}
	if nv == 0 || nu == 0 {
		return res, nil, nil
	}

	s := 0
	eventNode := func(v int) int { return 1 + v }
	userNode := func(u int) int { return 1 + nv + u }
	t := 1 + nv + nu

	g := mincostflow.AcquireGraph(nv + nu + 2)
	defer mincostflow.ReleaseGraph(g)
	g.Grow(nv + nu + nv*nu)
	for v, e := range in.Events {
		g.AddArc(s, eventNode(v), int64(e.Cap), 0)
	}
	for u, usr := range in.Users {
		g.AddArc(userNode(u), t, int64(usr.Cap), 0)
	}

	// Similarity rows, gathered from the previous state where the event
	// survived (bit-identical: attrs are immutable, kernels deterministic)
	// and batch-computed otherwise. Rows are owned by the new FlowState, so
	// they are allocated fresh, not pooled.
	var oldEventRow, oldUserCol map[int]int
	if prev != nil {
		oldEventRow = make(map[int]int, len(prev.events))
		for i, e := range prev.events {
			oldEventRow[e] = i
		}
		oldUserCol = make(map[int]int, len(prev.users))
		for j, u := range prev.users {
			oldUserCol[u] = j
		}
	}
	rows := make([][]float64, nv)
	for v := 0; v < nv; v++ {
		row := make([]float64, nu)
		reused := false
		if prev != nil && capture {
			if ov, ok := oldEventRow[events[v]]; ok {
				oldRow := prev.rows[ov]
				for u := 0; u < nu; u++ {
					if oc, ok := oldUserCol[users[u]]; ok {
						row[u] = oldRow[oc]
					} else {
						row[u] = in.Similarity(v, u)
					}
				}
				reused = true
			}
		}
		if !reused {
			in.similarityRow(v, row)
		}
		rows[v] = row
	}
	scratch := acquireMcflowScratch(nv, nu)
	defer releaseMcflowScratch(scratch)
	pairArc := scratch.pairArc
	for v := 0; v < nv; v++ {
		for u := 0; u < nu; u++ {
			pairArc[v*nu+u] = g.AddArc(eventNode(v), userNode(u), 1, 1-rows[v][u])
		}
	}

	// Restore the previous flow support where both endpoints survived and
	// residual capacity allows (a delta may have shrunk caps).
	warm := false
	var potInit []float64
	if prev != nil && capture {
		newEventIdx := make(map[int]int, nv)
		for v, e := range events {
			newEventIdx[e] = v
		}
		newUserIdx := make(map[int]int, nu)
		for u, id := range users {
			newUserIdx[id] = u
		}
		var restored int64
		for _, p := range prev.pairs {
			v, okv := newEventIdx[p[0]]
			u, oku := newUserIdx[p[1]]
			if !okv || !oku {
				continue
			}
			srcA := mincostflow.ArcID(2 * v)
			sinkA := mincostflow.ArcID(2 * (nv + u))
			pa := pairArc[v*nu+u]
			if g.Residual(srcA) > 0 && g.Residual(pa) > 0 && g.Residual(sinkA) > 0 {
				g.PushFlow(srcA, 1)
				g.PushFlow(pa, 1)
				g.PushFlow(sinkA, 1)
				restored++
			}
		}
		if restored > 0 {
			warm = true
			potInit = make([]float64, nv+nu+2)
			onv, onu := len(prev.events), len(prev.users)
			potInit[s] = prev.pot[0]
			potInit[t] = prev.pot[onv+onu+1]
			for v, e := range events {
				if ov, ok := oldEventRow[e]; ok {
					potInit[eventNode(v)] = prev.pot[1+ov]
				}
			}
			for u, id := range users {
				if oc, ok := oldUserCol[id]; ok {
					potInit[userNode(u)] = prev.pot[1+onv+oc]
				}
			}
		}
	}

	sv := mincostflow.AcquireSolver(g, s, t)
	defer mincostflow.ReleaseSolver(sv)
	if warm {
		ws := sv.WarmStart(g, s, t, potInit)
		if !ws.OK {
			mcflowWarmColdFallbacks.Inc()
			g.ClearFlow()
			sv.Reset(g, s, t)
			warm = false
		} else {
			mcflowWarmHits.Inc()
			mcflowWarmRestoredUnits.Add(ws.RestoredFlow)
			// Retreat: drop restored units whose marginal cost reached 1 —
			// units the cold sweep would never have pushed.
			for {
				if err := ctx.Err(); err != nil {
					observeFlowWork(sv, 0)
					return nil, nil, err
				}
				if _, ok := sv.RetreatAbove(1); !ok {
					break
				}
			}
		}
	}

	var augmentations int64
	for {
		if err := ctx.Err(); err != nil {
			observeFlowWork(sv, augmentations)
			return nil, nil, err
		}
		if _, _, ok := sv.AugmentBelow(math.MaxInt64, 1); !ok {
			break
		}
		augmentations++
	}
	observeFlowWork(sv, augmentations)
	res.Delta = sv.TotalFlow()
	mcflowDeltaUnits.Add(res.Delta)

	var st *FlowState
	if capture {
		st = &FlowState{
			events: append([]int(nil), events...),
			users:  append([]int(nil), users...),
			rows:   rows,
			pot:    sv.Potentials(nil),
		}
	}
	for v := 0; v < nv; v++ {
		row := rows[v]
		for u := 0; u < nu; u++ {
			if g.Flow(pairArc[v*nu+u]) != 1 {
				continue
			}
			if sim := row[u]; sim > 0 {
				res.Relaxed.Add(v, u, sim)
			}
			if st != nil {
				// The state keeps sim-0 flow pairs too: they carry real
				// flow units the restore phase must reproduce.
				st.pairs = append(st.pairs, [2]int{events[v], users[u]})
			}
		}
	}
	res.RelaxedMaxSum = res.Relaxed.MaxSum()
	return res, st, nil
}
