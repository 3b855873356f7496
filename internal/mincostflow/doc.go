// Package mincostflow is the test oracle for the conflict-free relaxation:
// a minimum-cost flow solver on directed networks with integer capacities
// and real-valued arc costs, run on the §III.A network with its users as
// nodes. Production solves the relaxation in internal/core, whose searches
// run over the events only (DESIGN.md, "Event-space search");
// core.FuzzEventFlow and this package's relaxation tests hold that solver
// to this one.
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
// Build a network with NewGraph and AddArc (arcs are stored as
// forward/residual twins; AddArc returns an ArcID whose post-solve flow is
// read back with Graph.Flow). NewSolver binds a Solver to one source/sink
// pair and indexes the arcs into one forward-star (CSR) adjacency whose
// non-terminal arcs a search sorts by cost; the Solver mutates the graph's
// residual capacities, so build a fresh Graph per solve.
//
// Solver.AugmentPaths(maxUnits, bound) runs one shortest-path search and
// pushes every successive shortest path that search can certify, while
// the per-unit cost stays below bound. Successive paths have
// non-decreasing per-unit costs, and after each call the current flow is
// a minimum-cost flow of amount TotalFlow(); a call reports whether a
// later one may push more, and with bound math.Inf(1) the loop computes a
// min-cost max-flow.
//
// The search leaves the sink out of its heap (internal/pqueue's indexed
// heap). Each settled node with a residual arc into t becomes a candidate,
// keyed by the length of the path through that arc, and candidates pop
// in key order between the nodes. A candidate whose tree path is still
// intact after the pushes before it, and whose key is below the bound the
// broken candidates put on every path through them, is the next
// successive shortest path: the search pushes it and goes on. The batch
// ends at the first candidate it cannot certify; potentials then advance
// by min(dist[v], H) for the key H it ended at, and each broken candidate
// is lifted so its arc into t keeps a non-negative reduced cost. A popped
// node scans its cost-sorted arcs only while they can beat the next
// queued key and puts the rest of its list back on the heap.
// Solver.SearchStats reports the searches, the paths pushed, the heap
// pops and the arcs scanned.
//
// Costs may be negative as long as the graph admits no negative cycle:
// NewSolver runs one Bellman–Ford relaxation to compute valid initial
// potentials when a negative-cost arc is present (the GEACC reduction's
// costs lie in [0, 1], so it skips this).
//
// The package's tests carry a cycle-canceling solver (cyclecancel_test.go)
// as the oracle every SSPA step is checked against and as the §III.A
// ablation in BenchmarkFlowSolvers, and the one-path-per-search step
// AugmentBelow (onepath_test.go) that AugmentPaths' batches must match.
package mincostflow
