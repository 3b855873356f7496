package decomp

import (
	"context"
	"time"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/obs"
)

// Solved describes one finished solve for Diagnose.
type Solved struct {
	Algo    string
	In      *core.Instance
	M       *core.Matching
	Elapsed time.Duration
	// Spans and Deltas are the solve's recorded spans and the obs counters
	// it moved, read before the bound is computed.
	Spans  []obs.SpanData
	Deltas map[string]int64
	// Bound is the Corollary 1 relaxation value the solve computed on the
	// way (core.SolveContextBound); meaningful only when HasBound.
	Bound    float64
	HasBound bool
	// D is the decomposition a decomposed solve ran over (nil for a
	// monolithic solve) and Workers the pool size it was asked for.
	D       *Decomposition
	Workers int
}

// Diagnose assembles the Diagnostics artifact of a finished solve. It is
// the one diagnostics path behind POST /solve?diag=1 and geacc-solve -diag.
// The Corollary 1 bound is taken from what the solve already computed
// wherever it can, so observing a solve does not cost another:
//
//   - a decomposed solve sums its per-component bounds
//     (Decomposition.RelaxedBound), relaxing only the components whose
//     solve left no bound;
//   - a monolithic solve that computed the bound (mincostflow) reuses it;
//   - anything else (greedy, exact, the random baselines, the portfolio)
//     pays one relaxation of the whole instance.
//
// A decomposed solve also gets its decomposition and partition blocks, the
// latter with BoundLoss set to the gap. ctx bounds the
// relaxations; its cancellation is the only error.
func Diagnose(ctx context.Context, s Solved) (*core.Diagnostics, error) {
	bound := s.Bound
	var err error
	switch {
	case s.D != nil:
		bound, err = s.D.RelaxedBound(ctx)
	case !s.HasBound:
		bound, err = core.RelaxedUpperBoundCtx(ctx, s.In)
	}
	if err != nil {
		return nil, err
	}
	d := core.BuildDiagnosticsBound(s.Algo, s.In, s.M, s.Elapsed, s.Spans, s.Deltas, bound)
	if s.D != nil {
		d.Decomposition = s.D.Stats(s.Workers)
		if pst := s.D.PartitionStats(); pst != nil {
			// BoundLoss: the measured loss vs the unsharded Corollary 1
			// bound, i.e. this run's gap (RelaxedBound relaxes sharded
			// components unsharded).
			pst.BoundLoss = d.Gap
			d.Partition = pst
		}
	}
	return d, nil
}
