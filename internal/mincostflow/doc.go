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
// Solver.AugmentBelow(maxUnits, bound) pushes along one shortest
// augmenting path while its per-unit cost stays below bound. Successive
// calls yield non-decreasing per-unit costs, and after each call the
// current flow is a minimum-cost flow of amount TotalFlow(); with bound
// math.Inf(1) the loop computes a min-cost max-flow. It is the primitive
// internal/core's Δ-sweep uses to stop at the MaxSum-optimal Δ, and the
// natural place callers poll for cancellation (internal/core does, between
// calls).
//
// Each shortest-path search stops as soon as it pops its target (the sink
// for AugmentBelow, the source for RetreatAbove's reverse
// search), since only that one path is used. Potentials then advance by
// min(dist[v], dist[target]). Nodes the search settled move by their exact
// distance and every other node by the target's, which keeps every
// residual reduced cost non-negative (DESIGN.md, "Truncated Dijkstra",
// has the proof). The search also skips every relaxation that cannot beat
// the target: it keeps an upper bound on the target's distance, and a
// popped node stops scanning its cost-sorted arcs at the first one whose
// label could not fall below that bound (DESIGN.md, "Bounded scan").
// Solver.SearchStats reports the pops and the arcs scanned.
//
// Costs may be negative as long as the graph admits no negative cycle:
// binding a Solver runs one Bellman–Ford relaxation to compute valid initial
// potentials when a negative-cost arc is present (the GEACC reduction's
// costs lie in [0, 1], so it skips this).
//
// The package's tests carry a cycle-canceling solver (cyclecancel_test.go)
// as the oracle every SSPA step is checked against and as the §III.A
// ablation in BenchmarkFlowSolvers.
package mincostflow
