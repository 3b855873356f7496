package core

import (
	"time"

	"github.com/ebsnlab/geacc/internal/obs"
)

// Diagnostics is the per-solve quality/latency artifact: the instance
// shape, the achieved MaxSum against the Corollary 1 relaxation bound, the
// resulting optimality gap, where the wall-clock time went (one entry per
// recorded span), and how much solver work the run performed (deltas of
// the process-global obs counters). It is what `geacc-solve -diag` prints
// and what `POST /solve?diag=1` embeds in its response.
type Diagnostics struct {
	Algo string `json:"algo"`

	// Instance shape.
	Events        int `json:"events"`         // |V|
	Users         int `json:"users"`          // |U|
	Conflicts     int `json:"conflicts"`      // |CF|
	EventCapacity int `json:"event_capacity"` // Σ c_v
	UserCapacity  int `json:"user_capacity"`  // Σ c_u

	// Outcome.
	Pairs  int     `json:"pairs"`
	MaxSum float64 `json:"max_sum"`

	// Quality: RelaxedUpperBound is MaxSum(M∅), the conflict-free
	// relaxation optimum of Corollary 1, and Gap is
	// (RelaxedUpperBound - MaxSum) / RelaxedUpperBound — 0 means the solve
	// met the bound (provably optimal), clamped to 0 when the bound itself
	// is 0 (empty instances have nothing to lose).
	RelaxedUpperBound float64 `json:"relaxed_upper_bound"`
	Gap               float64 `json:"gap"`

	// Timing: total wall clock plus one entry per span the solve emitted
	// (solve/<algo> and the per-phase spans underneath it).
	Seconds float64       `json:"seconds"`
	Phases  []PhaseTiming `json:"phases,omitempty"`

	// MetricDeltas holds the obs counters the run moved (greedy pops,
	// augmenting paths, search nodes, …), by encoded series name. Deltas
	// are read from the process-global registry, so concurrent solves in
	// other goroutines bleed into each other's counts; on a busy server
	// treat them as indicative, in a CLI run they are exact.
	MetricDeltas map[string]int64 `json:"metric_deltas,omitempty"`

	// Decomposition is present only when the solve ran through the
	// connected-component decomposition layer (internal/decomp): how the
	// instance sharded and how the component pool was sized.
	Decomposition *DecompositionStats `json:"decomposition,omitempty"`

	// Partition is present only when approximate sharding ran
	// (internal/partition): how oversized components split, what the cut
	// cost was, and the measured loss vs the unsharded Corollary 1 bound.
	Partition *PartitionStats `json:"partition,omitempty"`

	// ExactGate is present for exact solves that passed through an area
	// gate (the server's HTTP budget): the area the decision saw and
	// whether the request was refused.
	ExactGate *ExactGateStats `json:"exact_gate,omitempty"`
}

// PartitionStats aggregates the approximate-sharding layer across the
// components of one solve. Filled by internal/decomp when Options.Shard is
// set and at least one component exceeded the area threshold.
type PartitionStats struct {
	// Runs counts components routed through partitioning; Shards is the
	// total sub-shard count across them.
	Runs   int `json:"runs"`
	Shards int `json:"shards"`
	// Fallbacks counts components whose drift estimate breached the hard
	// budget and were re-solved monolithically (their drift is zero).
	Fallbacks int `json:"fallbacks,omitempty"`
	// CutPairs / CutConflicts count positive-similarity pairs and CF edges
	// crossing shard boundaries (the latter can never bind in the merge).
	CutPairs     int `json:"cut_pairs"`
	CutConflicts int `json:"cut_conflicts,omitempty"`
	// RepairMoves / RepairGain summarize the boundary repair pass.
	RepairMoves int     `json:"repair_moves"`
	RepairGain  float64 `json:"repair_gain"`
	// MaxDriftEstimate is the largest per-component bounded relative loss
	// (LostCutBound / merged MaxSum); always <= DriftBudget unless the
	// component fell back.
	MaxDriftEstimate float64 `json:"max_drift_estimate"`
	DriftBudget      float64 `json:"drift_budget"`
	MaxArea          int64   `json:"max_area"`
	Strategy         string  `json:"strategy"`
	// BoundLoss is the measured relative MaxSum loss of the whole solve vs
	// the unsharded Corollary 1 relaxation bound — identical to
	// Diagnostics.Gap, restated here so the sharding artifact is
	// self-contained. Filled by diagnostics assemblers.
	BoundLoss float64 `json:"bound_loss"`
}

// ExactGateStats records an exact-solve area-gate decision: ComponentArea
// is the largest |V|·|U| the gate saw (the whole instance when not
// decomposed), Limit the configured ceiling, Gated whether the request was
// refused because of it.
type ExactGateStats struct {
	ComponentArea int64 `json:"component_area"`
	Limit         int64 `json:"limit"`
	Gated         bool  `json:"gated"`
}

// DecompositionStats summarizes one decomposed solve: the component count
// and the largest shard (the wall-clock floor of the parallel phase), the
// stranded nodes that cannot appear in any matching (events with no
// positive-similarity user in their component, and vice versa), the worker
// pool size, and the union-graph construction time. Filled by
// internal/decomp; zero-valued fields are meaningful (a fully connected
// instance has Components == 1 and no stranded nodes).
type DecompositionStats struct {
	Components     int     `json:"components"`
	LargestEvents  int     `json:"largest_events"`
	LargestUsers   int     `json:"largest_users"`
	StrandedEvents int     `json:"stranded_events,omitempty"`
	StrandedUsers  int     `json:"stranded_users,omitempty"`
	Workers        int     `json:"workers"`
	BuildSeconds   float64 `json:"build_seconds"`
}

// PhaseTiming is one named wall-clock interval inside a solve.
type PhaseTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// BuildDiagnostics assembles the artifact from an already-completed solve,
// computing the Corollary 1 bound with one relaxation solve
// (RelaxedUpperBound). It publishes the gap metrics as a side effect.
func BuildDiagnostics(algo string, in *Instance, m *Matching, elapsed time.Duration,
	spans []obs.SpanData, deltas map[string]int64) *Diagnostics {
	return BuildDiagnosticsBound(algo, in, m, elapsed, spans, deltas, RelaxedUpperBound(in))
}

// BuildDiagnosticsBound is BuildDiagnostics with the Corollary 1 bound
// supplied by the caller — a value the solve already computed (see
// SolveContextBound, decomp's Decomposition.RelaxedBound) — so observing
// the solve costs no second relaxation.
func BuildDiagnosticsBound(algo string, in *Instance, m *Matching, elapsed time.Duration,
	spans []obs.SpanData, deltas map[string]int64, bound float64) *Diagnostics {
	d := &Diagnostics{
		Algo:         algo,
		Events:       in.NumEvents(),
		Users:        in.NumUsers(),
		Pairs:        m.Size(),
		MaxSum:       m.MaxSum(),
		Seconds:      elapsed.Seconds(),
		MetricDeltas: deltas,
	}
	if in.Conflicts != nil {
		d.Conflicts = in.Conflicts.Edges()
	}
	for _, e := range in.Events {
		d.EventCapacity += e.Cap
	}
	for _, u := range in.Users {
		d.UserCapacity += u.Cap
	}
	for _, sp := range spans {
		d.Phases = append(d.Phases, PhaseTiming{Name: sp.Name, Seconds: sp.Duration.Seconds()})
	}
	d.RelaxedUpperBound = bound
	if d.RelaxedUpperBound > 0 {
		d.Gap = (d.RelaxedUpperBound - d.MaxSum) / d.RelaxedUpperBound
		// MaxSum can exceed the bound only by float rounding; a negative
		// gap would just confuse dashboards.
		if d.Gap < 0 {
			d.Gap = 0
		}
	}
	observeGap(algo, d.Gap)
	return d
}
