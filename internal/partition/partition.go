package partition

import (
	"fmt"
	"sort"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
)

// Defaults. DefaultMaxArea targets shards a min-cost-flow solve finishes in
// tens of milliseconds; DefaultDriftBudget caps the bounded relative MaxSum
// loss at 1%.
const (
	DefaultMaxArea      int64   = 20000
	DefaultDriftBudget  float64 = 0.01
	DefaultRepairRounds         = 2

	// coOccurTop bounds the per-user fan-out of the event co-interest
	// graph: only a user's strongest coOccurTop events attract pairwise.
	// Keeps graph construction O(|U|·top²) instead of O(|U|·|V|²).
	coOccurTop = 8
)

// Strategy names an event-grouping heuristic.
type Strategy string

const (
	// StrategyModularity greedily merges event groups by modularity gain
	// over the co-interest graph (CNM-style agglomeration).
	StrategyModularity Strategy = "modularity"
	// StrategyBFS grows balanced groups breadth-first, visiting conflict
	// neighbors before similarity neighbors.
	StrategyBFS Strategy = "bfs"
)

// ParseStrategy maps a flag/query value to a Strategy; "" means the default.
func ParseStrategy(s string) (Strategy, error) {
	switch Strategy(s) {
	case "", StrategyModularity:
		return StrategyModularity, nil
	case StrategyBFS:
		return StrategyBFS, nil
	}
	return "", fmt.Errorf("partition: unknown strategy %q (want %q or %q)", s, StrategyModularity, StrategyBFS)
}

// Options tunes the approximate sharding of one component.
type Options struct {
	// MaxArea is the per-shard |V|·|U| target (and the threshold above
	// which callers shard at all); <= 0 means DefaultMaxArea.
	MaxArea int64
	// Strategy picks the event-grouping heuristic; "" means modularity.
	Strategy Strategy
	// DriftBudget is the hard cap on DriftEstimate (the bounded relative
	// MaxSum loss); exceeding it falls back to the monolithic solve.
	// <= 0 means DefaultDriftBudget.
	DriftBudget float64
	// RepairRounds caps the boundary repair sweeps; <= 0 means
	// DefaultRepairRounds.
	RepairRounds int
}

// Normalized returns o with defaults applied to every zero field.
func (o Options) Normalized() Options {
	if o.MaxArea <= 0 {
		o.MaxArea = DefaultMaxArea
	}
	if o.Strategy == "" {
		o.Strategy = StrategyModularity
	}
	if o.DriftBudget <= 0 {
		o.DriftBudget = DefaultDriftBudget
	}
	if o.RepairRounds <= 0 {
		o.RepairRounds = DefaultRepairRounds
	}
	return o
}

// Shard is one sub-shard of a component: index lists into the component's
// space plus the sub-instance core.Instance.Sub builds over them, as for
// decomp's components (similarities bit-identical to the component's, only
// intra-shard conflicts kept: users never span shards, so cross-shard
// conflicts cannot bind).
type Shard struct {
	Events []int
	Users  []int
	Sub    *core.Instance
}

// cutPair is a positive-similarity (event, user) pair whose endpoints landed
// in different shards — the only edges a sharded solve cannot use.
type cutPair struct {
	v, u int
	sim  float64
}

// split is the full sharding of one component.
type split struct {
	shards       []Shard
	cuts         []cutPair
	cutWeight    float64
	cutConflicts int
	// lostCutBound is min(user side, event side) of the per-node
	// top-capacity cut-similarity sums: a sound upper bound on the MaxSum
	// any matching could extract from cut pairs, since a node with
	// capacity c contributes at most its c best cut similarities.
	lostCutBound float64
}

type userEdge struct {
	v   int
	sim float64
}

// buildSplit computes the sharding. A nil, nil return means the component
// does not shard under opt (at or below the area threshold, or nothing to
// split) and the caller should solve it as-is.
//
// Group growth is driven by a projected-area estimate, not a fixed group
// count: a group of e events holding mass share M/T of the total
// user-similarity mass is expected to attract ≈ |U|·M/T users, so its
// projected area is e·|U|·M/T. Groups grow only while that stays ≤ MaxArea
// — natural communities are never split just to hit a target count, which
// is what keeps the cut (and therefore the drift) small.
func buildSplit(in *core.Instance, opt Options) (*split, error) {
	nv, nu := in.NumEvents(), in.NumUsers()
	area := int64(nv) * int64(nu)
	if area <= opt.MaxArea || nv < 2 || nu < 2 {
		return nil, nil
	}

	// Positive adjacency per user plus per-event similarity mass, from one
	// kernel-batched row scan.
	userEdges := make([][]userEdge, nu)
	eventMass := make([]float64, nv)
	totalMass := 0.0
	row := make([]float64, nu)
	for v := 0; v < nv; v++ {
		in.SimilarityRow(v, row)
		for u, s := range row {
			if s > 0 {
				userEdges[u] = append(userEdges[u], userEdge{v, s})
				eventMass[v] += s
			}
		}
		totalMass += eventMass[v]
	}

	w := coInterestGraph(nv, userEdges, in.Conflicts)
	// allowed reports whether a group of size events with the given mass
	// stays within the projected per-shard area budget.
	allowed := func(size int, mass float64) bool {
		return float64(size)*float64(nu)*mass <= float64(opt.MaxArea)*totalMass
	}
	var groupOf []int
	switch {
	case totalMass == 0:
		// No positive similarity at all (cannot happen for a decomp
		// component, but keep the function total): contiguous chunks.
		k := int((area + opt.MaxArea - 1) / opt.MaxArea)
		if k > nv {
			k = nv
		}
		evCap := (nv + k - 1) / k
		groupOf = make([]int, nv)
		for v := range groupOf {
			groupOf[v] = v / evCap
		}
	case opt.Strategy == StrategyBFS:
		groupOf = bfsGroups(nv, w, in.Conflicts, eventMass, allowed)
	default:
		groupOf = modularityGroups(nv, w, eventMass, allowed)
	}
	groupOf = renumberGroups(groupOf)

	shardEvents := groupMembers(groupOf)
	userShard := assignUsers(nu, userEdges, groupOf, shardEvents, opt.MaxArea)

	sl := &split{}
	collectCuts(in, userEdges, groupOf, userShard, sl)

	// Materialize non-degenerate shards (a group whose events interest no
	// assigned user solves to nothing; its pairs are all cut and already
	// counted in the bound).
	shardUsers := make([][]int, len(shardEvents))
	for u, s := range userShard {
		shardUsers[s] = append(shardUsers[s], u)
	}
	evSub := make([]int, nv)
	for s := range shardEvents {
		if len(shardEvents[s]) == 0 || len(shardUsers[s]) == 0 {
			continue
		}
		sub, err := in.Sub(shardEvents[s], shardUsers[s], evSub)
		if err != nil {
			return nil, fmt.Errorf("partition: materialize shard: %w", err)
		}
		sl.shards = append(sl.shards, Shard{Events: shardEvents[s], Users: shardUsers[s], Sub: sub})
	}
	return sl, nil
}

// coInterestGraph builds the weighted event graph: for each user its top
// coOccurTop events attract pairwise with weight sim_i·sim_j, and conflict
// edges get a boost larger than any co-interest weight so both strategies
// keep CF pairs together whenever the balance cap allows.
func coInterestGraph(nv int, userEdges [][]userEdge, cf *conflict.Graph) map[int64]float64 {
	w := make(map[int64]float64)
	top := make([]userEdge, 0, coOccurTop)
	for _, edges := range userEdges {
		top = top[:0]
		for _, e := range edges {
			// Insertion into a small list sorted by sim desc (ties: lower
			// event id first, for determinism).
			pos := len(top)
			for pos > 0 && (top[pos-1].sim < e.sim || (top[pos-1].sim == e.sim && top[pos-1].v > e.v)) {
				pos--
			}
			if pos >= coOccurTop {
				continue
			}
			if len(top) < coOccurTop {
				top = append(top, userEdge{})
			}
			copy(top[pos+1:], top[pos:])
			top[pos] = e
		}
		for i := 0; i < len(top); i++ {
			for j := i + 1; j < len(top); j++ {
				a, b := top[i].v, top[j].v
				if a > b {
					a, b = b, a
				}
				w[int64(a)*int64(nv)+int64(b)] += top[i].sim * top[j].sim
			}
		}
	}
	if cf != nil && cf.Edges() > 0 {
		var maxW float64
		for _, x := range w {
			if x > maxW {
				maxW = x
			}
		}
		boost := maxW + 1
		for _, p := range cf.Pairs() {
			w[int64(p[0])*int64(nv)+int64(p[1])] += boost
		}
	}
	return w
}

// mgroup is one agglomeration group during modularity merging.
type mgroup struct {
	size  int
	min   int // smallest member event id: the deterministic tie-break key
	deg   float64
	mass  float64
	adj   map[int]float64
	alive bool
}

// modularityGroups greedily merges singleton event groups in two phases:
// first by modularity gain ΔQ = w_ij/m − deg_i·deg_j/(2m²) while positive
// gains exist, then by raw edge weight to pack fragments — both only
// through merges the projected-area allowance permits. Deterministic:
// candidate selection uses a strict total order (gain/weight, then smallest
// member ids), so map iteration order never shows through.
func modularityGroups(nv int, w map[int64]float64, eventMass []float64, allowed func(int, float64) bool) []int {
	groups := make([]*mgroup, nv)
	for v := range groups {
		groups[v] = &mgroup{size: 1, min: v, mass: eventMass[v], adj: make(map[int]float64), alive: true}
	}
	var total float64
	for key, x := range w {
		a, b := int(key/int64(nv)), int(key%int64(nv))
		groups[a].adj[b] += x
		groups[b].adj[a] += x
		groups[a].deg += x
		groups[b].deg += x
		total += x
	}
	if total == 0 {
		// No co-interest signal: every event its own group (packing
		// unrelated events would only manufacture cut pairs elsewhere).
		return resolveGroups(groups, nv)
	}

	for phase := 0; phase < 2; phase++ {
		for {
			bestI, bestJ := -1, -1
			bestKey := 0.0
			found := false
			for i, gi := range groups {
				if !gi.alive {
					continue
				}
				for j, wij := range gi.adj {
					gj := groups[j]
					if !gj.alive || gj.min <= gi.min || !allowed(gi.size+gj.size, gi.mass+gj.mass) {
						continue
					}
					key := wij // phase 1: densest connection first
					if phase == 0 {
						key = wij/total - gi.deg*gj.deg/(2*total*total)
						if key <= 0 {
							continue
						}
					}
					if !found || key > bestKey ||
						(key == bestKey && (gi.min < groups[bestI].min ||
							(gi.min == groups[bestI].min && gj.min < groups[bestJ].min))) {
						bestI, bestJ, bestKey, found = i, j, key, true
					}
				}
			}
			if !found {
				break
			}
			mergeGroups(groups, bestI, bestJ)
		}
	}
	return resolveGroups(groups, nv)
}

// resolveGroups maps each event to the live group that absorbed it, walking
// the merged-into links recorded on dead groups.
func resolveGroups(groups []*mgroup, nv int) []int {
	out := make([]int, nv)
	for v := 0; v < nv; v++ {
		g := v
		for !groups[g].alive {
			g = groups[g].min // dead groups store their absorber's index in min
		}
		out[v] = g
	}
	return out
}

// mergeGroups folds group j into group i (i keeps the smaller min id; the
// dead group's min field becomes a link to its absorber for resolveGroups).
func mergeGroups(groups []*mgroup, i, j int) {
	gi, gj := groups[i], groups[j]
	for n, x := range gj.adj {
		if n == i {
			continue
		}
		gi.adj[n] += x
		gn := groups[n]
		gn.adj[i] += gn.adj[j]
		delete(gn.adj, j)
	}
	delete(gi.adj, j)
	delete(gi.adj, i)
	gi.size += gj.size
	gi.deg += gj.deg
	gi.mass += gj.mass
	if gj.min < gi.min {
		gi.min = gj.min
	}
	gj.alive = false
	gj.adj = nil
	gj.min = i // link for resolveGroups
}

// bfsGroups grows groups breadth-first from the smallest unassigned event,
// visiting conflict neighbors before similarity neighbors (so CF pairs land
// together whenever the allowance permits), closing a group when the next
// event would push its projected area past the budget.
func bfsGroups(nv int, w map[int64]float64, cf *conflict.Graph, eventMass []float64, allowed func(int, float64) bool) []int {
	type adjEdge struct {
		to int
		w  float64
	}
	adj := make([][]adjEdge, nv)
	for key, x := range w {
		a, b := int(key/int64(nv)), int(key%int64(nv))
		adj[a] = append(adj[a], adjEdge{b, x})
		adj[b] = append(adj[b], adjEdge{a, x})
	}
	for v := range adj {
		sort.Slice(adj[v], func(i, j int) bool {
			if adj[v][i].w != adj[v][j].w {
				return adj[v][i].w > adj[v][j].w
			}
			return adj[v][i].to < adj[v][j].to
		})
	}

	groupOf := make([]int, nv)
	for v := range groupOf {
		groupOf[v] = -1
	}
	g := 0
	for seed := 0; seed < nv; seed++ {
		if groupOf[seed] != -1 {
			continue
		}
		count := 0
		mass := 0.0
		queue := []int{seed}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if groupOf[v] != -1 {
				continue
			}
			// The seed always joins (every event needs a home); later
			// events only while the projected area stays within budget.
			if count > 0 && !allowed(count+1, mass+eventMass[v]) {
				continue
			}
			groupOf[v] = g
			count++
			mass += eventMass[v]
			if cf != nil {
				for _, nb := range cf.Neighbors(v) {
					if groupOf[nb] == -1 {
						queue = append(queue, nb)
					}
				}
			}
			for _, e := range adj[v] {
				if groupOf[e.to] == -1 {
					queue = append(queue, e.to)
				}
			}
		}
		g++
	}
	return groupOf
}

// renumberGroups compacts group ids to 0..S-1 in order of first appearance
// over ascending event ids — deterministic and strategy-independent.
func renumberGroups(groupOf []int) []int {
	next := 0
	seen := make(map[int]int)
	out := make([]int, len(groupOf))
	for v, g := range groupOf {
		id, ok := seen[g]
		if !ok {
			id = next
			seen[g] = id
			next++
		}
		out[v] = id
	}
	return out
}

func groupMembers(groupOf []int) [][]int {
	max := -1
	for _, g := range groupOf {
		if g > max {
			max = g
		}
	}
	out := make([][]int, max+1)
	for v, g := range groupOf {
		out[g] = append(out[g], v)
	}
	return out
}

// assignUsers places each user in the shard holding most of its similarity
// mass, under a per-shard budget of MaxArea/|V_s| users that keeps shard
// areas near MaxArea. Budgets have ≥ k× aggregate slack over |U| (AM–HM),
// so the least-loaded fallback below fires only on floor-rounding edges.
func assignUsers(nu int, userEdges [][]userEdge, groupOf []int, shardEvents [][]int, maxArea int64) []int {
	s := len(shardEvents)
	budget := make([]int, s)
	for i := range budget {
		if len(shardEvents[i]) == 0 {
			continue
		}
		b := int(maxArea / int64(len(shardEvents[i])))
		if b < 1 {
			b = 1
		}
		budget[i] = b
	}
	mass := make([]float64, s)
	out := make([]int, nu)
	for u := 0; u < nu; u++ {
		for i := range mass {
			mass[i] = 0
		}
		for _, e := range userEdges[u] {
			mass[groupOf[e.v]] += e.sim
		}
		best := -1
		for i := 0; i < s; i++ {
			if budget[i] <= 0 {
				continue
			}
			if best == -1 || mass[i] > mass[best] {
				best = i
			}
		}
		if best == -1 {
			best = 0
			for i := 1; i < s; i++ {
				if budget[i] > budget[best] {
					best = i
				}
			}
		}
		out[u] = best
		budget[best]--
	}
	return out
}

// collectCuts records every positive pair crossing shards, the crossing
// conflict edges (structurally non-binding after the merge), and the
// capacity-aware lost-cut bound.
func collectCuts(in *core.Instance, userEdges [][]userEdge, groupOf, userShard []int, sl *split) {
	nv := in.NumEvents()
	userCut := make([][]float64, len(userEdges))
	eventCut := make([][]float64, nv)
	for u, edges := range userEdges {
		su := userShard[u]
		for _, e := range edges {
			if groupOf[e.v] == su {
				continue
			}
			sl.cuts = append(sl.cuts, cutPair{v: e.v, u: u, sim: e.sim})
			sl.cutWeight += e.sim
			userCut[u] = append(userCut[u], e.sim)
			eventCut[e.v] = append(eventCut[e.v], e.sim)
		}
	}
	userSide := 0.0
	for u, sims := range userCut {
		userSide += topSum(sims, in.Users[u].Cap)
	}
	eventSide := 0.0
	for v, sims := range eventCut {
		eventSide += topSum(sims, in.Events[v].Cap)
	}
	sl.lostCutBound = userSide
	if eventSide < userSide {
		sl.lostCutBound = eventSide
	}
	if in.Conflicts != nil {
		for _, p := range in.Conflicts.Pairs() {
			if groupOf[p[0]] != groupOf[p[1]] {
				sl.cutConflicts++
			}
		}
	}
}

// topSum returns the sum of the c largest values in sims.
func topSum(sims []float64, c int) float64 {
	if len(sims) > c {
		sort.Sort(sort.Reverse(sort.Float64Slice(sims)))
		sims = sims[:c]
	}
	total := 0.0
	for _, s := range sims {
		total += s
	}
	return total
}
