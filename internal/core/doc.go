// Package core implements the Global Event-participant Arrangement with
// Conflict and Capacity (GEACC) problem of She, Tong, Chen and Cao,
// "Conflict-Aware Event-Participant Arrangement" (ICDE 2015).
//
// # Problem
//
// Given a set of events V (each v with attendee capacity c_v and attribute
// vector l_v), a set of users U (each u with arrangement capacity c_u and
// attribute vector l_u), a set CF of conflicting event pairs, and a
// similarity function sim(l_v, l_u) ∈ [0, 1], find an arrangement
// M ⊆ V × U maximizing
//
//	MaxSum(M) = Σ_{(v,u) ∈ M} sim(l_v, l_u)
//
// subject to: sim > 0 for every assigned pair; each event v appears in at
// most c_v pairs; each user u appears in at most c_u pairs; and no user is
// assigned to two conflicting events. GEACC is NP-hard (reduction from
// max-flow with conflict graphs; Theorem 1 of the paper).
//
// # Algorithms
//
// The paper's algorithms, with their guarantees (α = max c_u):
//
//	Greedy       Greedy-GEACC, Algorithm 2:   1/(1+α)-approx, near-linear
//	MinCostFlow  MinCostFlow-GEACC, Alg. 1:   1/α-approx, quartic
//	Exact        Prune-GEACC, Algorithms 3-4: optimal, exponential
//	RandomV/U    the evaluation's baselines
//
// Greedy maintains a heap of per-node nearest-neighbor candidate pairs and
// repeatedly commits the most similar feasible one; its NN queries run
// against a pluggable index (IndexKind). MinCostFlow solves the CF = ∅
// relaxation exactly as a minimum-cost flow (optimal by the paper's
// Lemma 1; also exposed as RelaxedUpperBound, an upper bound on the
// constrained optimum by Corollary 1) and then resolves each user's
// conflicts. Exact enumerates pair states in s_v·c_v order, pruning with
// the Lemma 6 bound, warm-started by Greedy.
//
// # Beyond the paper
//
// The package also provides a concurrent solver Portfolio, a 1-exchange +
// 2-swap LocalSearch post-optimizer, a dynamic Arranger for online
// arrival/cancellation workloads, budget-constrained arrangements
// (BudgetedGreedy), per-decision Greedy traces, matching Diffs, an exact
// per-user MWIS conflict resolution for MinCostFlow (FlowOptions), and a
// tightened admissible pruning bound for Exact (ExactOptions). Every
// matching any of these produce passes Validate.
//
// # Cancellation and observability
//
// SolveContext is the one entry point over the solver registry, a single
// table of context-aware entries (registry.go): it honors cancellation in the solvers that can run long (mincostflow
// between augmenting paths, exact between node expansions, greedy between
// heap pops — see also GreedyCtx, MinCostFlowCtx, ExactOptions.Ctx, and
// PortfolioCtx), records the per-algorithm solve metrics, and emits trace
// spans into a recorder attached to the context with
// obs.ContextWithRecorder. The algorithms additionally publish their
// internal work counts (greedy heap pops, flow augmentations, search-node
// expansions and prunes, local-search moves, arranger operation
// latencies) into the global internal/obs registry regardless of entry
// point; docs/OBSERVABILITY.md is the full metric catalog.
package core
