// Package mincostflow implements a minimum-cost flow solver on directed
// networks with integer capacities and real-valued arc costs.
//
// MinCostFlow-GEACC (Algorithm 1 of the paper) reduces the conflict-free
// GEACC instance to min-cost flow and computes minimum-cost flows of every
// amount Δ ∈ [Δmin, Δmax]. The solver here is the Successive Shortest Path
// Algorithm (SSPA) — the variant the paper (citing SIGMOD'08) recommends
// for large-scale many-to-many matching with real-valued costs — with
// Dijkstra over reduced costs and node potentials. Because SSPA augments
// along shortest paths, the flow after the k-th unit of augmentation is
// itself a minimum-cost flow of amount k, so a single run yields the whole
// Δ-sweep.
//
// # API
//
// Build a network with AcquireGraph and AddArc (arcs are stored as
// forward/residual twins; AddArc returns an ArcID whose post-solve flow is
// read back with Graph.Flow). Grow pre-allocates arc storage when the arc
// count is known. A Solver is bound to one source/sink pair by
// AcquireSolver and mutates the graph's residual capacities; acquire a
// fresh Graph (or Reset one) per solve. Binding indexes the arcs into one
// forward-star (CSR) adjacency whose non-terminal arcs a search sorts by
// cost.
//
// Solver.AugmentPaths(maxUnits, bound) runs one shortest-path search and
// pushes every successive shortest path that search can certify, while
// the per-unit cost stays below bound. Successive paths have
// non-decreasing per-unit costs, and after each call the current flow is
// a minimum-cost flow of amount TotalFlow(); a call reports whether a
// later one may push more, and with bound math.Inf(1) the loop computes a
// min-cost max-flow. It is the primitive internal/core's Δ-sweep uses to
// stop at the MaxSum-optimal Δ, and the natural place callers poll for
// cancellation (internal/core does, between calls).
//
// The search leaves the sink out of its heap. Each settled node with a
// residual arc into t becomes a candidate, keyed by the length of the
// path through that arc, and candidates pop in key order between the
// nodes. A candidate whose tree path is still intact after the pushes
// before it, and whose key is below the bound the broken candidates put on
// every path through them, is the next successive shortest path: the
// search pushes it and goes on. The batch ends at the first candidate it
// cannot certify; potentials then advance by min(dist[v], H) for the key H
// it ended at, and each broken candidate is lifted so its arc into t keeps
// a non-negative reduced cost (DESIGN.md, "One search, many paths"). A
// popped node scans its cost-sorted arcs only while they can beat the next
// queued key and puts the rest of its list back on the heap. On the
// 20×200 TABLE III shape one search pushes about six paths.
//
// RetreatAbove's reverse search, from the sink to the source, stops as
// soon as it pops its target, since only that one path is used.
// Potentials then advance by min(dist[v], dist[target]), which keeps every
// residual reduced cost non-negative (DESIGN.md, "Truncated Dijkstra").
// It also skips every relaxation that cannot beat the target: it keeps an
// upper bound on the target's distance, and a popped node stops scanning
// its cost-sorted arcs at the first one whose label could not fall below
// that bound (DESIGN.md, "Bounded scan"). Solver.SearchStats reports the
// searches, the paths pushed, the heap pops and the arcs scanned.
//
// Costs may be negative as long as the graph admits no negative cycle:
// binding a Solver runs one Bellman–Ford relaxation to compute valid initial
// potentials when a negative-cost arc is present (the GEACC reduction's
// costs lie in [0, 1], so it skips this).
//
// The package's tests carry a cycle-canceling solver (cyclecancel_test.go)
// as the oracle every SSPA step is checked against and as the §III.A
// ablation in BenchmarkFlowSolvers, and the one-path-per-search step
// AugmentBelow (onepath_test.go) that AugmentPaths' batches must match.
package mincostflow
