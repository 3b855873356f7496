// Package partition approximately shards one oversized connected component
// into balanced sub-shards so dense instances stay servable.
//
// The exact decomposition layer (internal/decomp) wins only when the
// similarity∪conflict union graph is disconnected: one giant component
// falls back to a monolithic solve. This package trades a measured, bounded
// amount of MaxSum for parallelism on exactly those instances:
//
//  1. Split. Events are grouped by a zero-dependency heuristic over the
//     event co-interest graph (edge weight = how strongly the same users
//     want both events; conflict edges get a weight boost so CF pairs stay
//     in one shard whenever the balance cap allows). Two strategies:
//     greedy modularity merging ("modularity") and BFS-grown balanced cuts
//     ("bfs"). Users are then assigned, each to exactly ONE shard — the
//     one holding most of their similarity mass — under a per-shard budget
//     that keeps every shard's |V|·|U| near Options.MaxArea.
//
//  2. Solve. Each shard is an ordinary GEACC sub-instance, solved through
//     the caller-supplied per-component machinery (solve cache, warm-started
//     min-cost flow, node-limited exact — whatever internal/decomp wires in).
//
//  3. Bounded-drift merge. Because every user lives in exactly one shard, a
//     user can only be matched to events of its own shard, so cross-shard
//     conflict edges can never bind: the merged matching is ALWAYS
//     conflict-feasible. The only loss is the similarity of cut pairs —
//     (event, user) edges crossing shards, which no shard solve can use. A
//     boundary repair pass re-adds the most valuable cut pairs with strict
//     local-search moves restricted to cut vertices, then the residual loss
//     is bounded: LostCutBound = min over sides of Σ per-node top-capacity
//     cut similarities is a sound upper bound on the MaxSum any unsharded
//     matching could additionally extract from cut pairs, so
//
//     OPT(component) ≤ OPT(sharded) + LostCutBound ≤ merged + LostCutBound.
//
//     DriftEstimate = LostCutBound / merged MaxSum therefore bounds the
//     relative loss vs the unsharded optimum. If it exceeds
//     Options.DriftBudget the component falls back to the monolithic solve
//     — the budget is hard, not advisory.
//
// Everything is deterministic: group numbering, user assignment, merge
// order, and repair order are all fixed by node ids and similarity values,
// so the merged matching is invariant to the worker count.
package partition
