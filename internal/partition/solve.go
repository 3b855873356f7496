package partition

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/obs"
)

// Partition-layer observability: runs counts components actually sharded
// (single-shard degenerations and callers below the area threshold never
// reach it), shards/cut_edges/repair_moves accumulate per run, drift
// observes the per-run DriftEstimate, fallbacks counts hard-budget
// breaches. The catalog entry lives in docs/OBSERVABILITY.md.
var (
	partRuns        = obs.Default().Counter("geacc_partition_runs_total")
	partShards      = obs.Default().Counter("geacc_partition_shards_total")
	partCutEdges    = obs.Default().Counter("geacc_partition_cut_edges_total")
	partRepairMoves = obs.Default().Counter("geacc_partition_repair_moves_total")
	partFallbacks   = obs.Default().Counter("geacc_partition_fallbacks_total")
	partDrift       = obs.Default().Histogram("geacc_partition_drift", DriftBuckets)
)

// DriftBuckets are the histogram bounds for geacc_partition_drift: relative
// MaxSum-loss estimates, so the interesting range is well below 1.
var DriftBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25}

// ShardSolveFunc solves one shard sub-instance. events/users are the
// shard's index lists in the component's space; shard is the shard's index
// (stable across runs — derive per-shard seeds from it).
type ShardSolveFunc func(ctx context.Context, sub *core.Instance, events, users []int, shard int) (*core.Matching, error)

// MonoSolveFunc solves the whole component unsharded: the fallback when the
// drift budget is breached and the answer when the component degenerates to
// a single shard.
type MonoSolveFunc func(ctx context.Context) (*core.Matching, error)

// Stats describes one SolveComponent run.
type Stats struct {
	Shards        int
	LargestEvents int
	LargestUsers  int
	CutPairs      int
	CutConflicts  int
	CutWeight     float64
	LostCutBound  float64
	RepairMoves   int
	RepairGain    float64
	// DriftEstimate = LostCutBound / merged MaxSum — the bounded relative
	// loss vs the unsharded optimum (see the package comment).
	DriftEstimate float64
	FellBack      bool
	Strategy      string
	BuildSeconds  float64
}

// SolveComponent shards in, solves the shards through solve in a bounded
// worker pool, merges deterministically, runs the boundary repair pass, and
// enforces the hard drift budget (falling back to mono on a breach).
// core.ErrNodeLimit from a shard (or the fallback) is non-fatal and
// returned alongside the best-so-far matching, mirroring internal/decomp.
func SolveComponent(ctx context.Context, in *core.Instance, opt Options, solve ShardSolveFunc, mono MonoSolveFunc) (*core.Matching, *Stats, error) {
	opt = opt.Normalized()
	rec := obs.RecorderFrom(ctx)
	sp := rec.Start("partition/component").
		Annotate("strategy", string(opt.Strategy)).
		Annotate("events", in.NumEvents()).
		Annotate("users", in.NumUsers())
	start := time.Now()
	sl, err := buildSplit(in, opt)
	if err != nil {
		sp.Annotate("error", err.Error()).End()
		return nil, nil, err
	}
	st := &Stats{Strategy: string(opt.Strategy), BuildSeconds: time.Since(start).Seconds()}
	if sl == nil || len(sl.shards) < 2 {
		// Nothing to shard (k clamped to 1, or every user piled into one
		// shard): the monolithic solve is the answer, with zero drift.
		st.Shards = 1
		m, err := mono(ctx)
		sp.Annotate("shards", 1).End()
		return m, st, err
	}

	st.Shards = len(sl.shards)
	st.CutPairs = len(sl.cuts)
	st.CutConflicts = sl.cutConflicts
	st.CutWeight = sl.cutWeight
	st.LostCutBound = sl.lostCutBound
	for _, sh := range sl.shards {
		if len(sh.Events)*len(sh.Users) > st.LargestEvents*st.LargestUsers {
			st.LargestEvents = len(sh.Events)
			st.LargestUsers = len(sh.Users)
		}
	}

	results, budgetErr, err := solveShards(ctx, rec, sl.shards, solve)
	if err != nil {
		sp.Annotate("error", err.Error()).End()
		return nil, nil, err
	}

	// Deterministic merge in shard order, back into component indices.
	merged := core.NewMatching()
	for j, sh := range sl.shards {
		if results[j] == nil {
			continue
		}
		for _, p := range results[j].Pairs() {
			merged.Add(sh.Events[p.V], sh.Users[p.U], p.Sim)
		}
	}

	rsp := rec.Start("partition/repair").Annotate("cut_pairs", len(sl.cuts))
	repaired, moves, gain := repairBoundary(in, merged, sl.cuts, opt.RepairRounds)
	rsp.Annotate("moves", moves).End()
	merged = repaired
	st.RepairMoves = moves
	st.RepairGain = gain

	if ms := merged.MaxSum(); ms > 0 {
		st.DriftEstimate = sl.lostCutBound / ms
	} else if sl.lostCutBound > 0 {
		st.DriftEstimate = 1
	}
	partRuns.Inc()
	partShards.Add(int64(st.Shards))
	partCutEdges.Add(int64(st.CutPairs))
	partRepairMoves.Add(int64(moves))
	partDrift.Observe(st.DriftEstimate)
	sp.Annotate("shards", st.Shards).
		Annotate("cut_pairs", st.CutPairs).
		Annotate("drift_estimate", st.DriftEstimate)

	if st.DriftEstimate > opt.DriftBudget {
		// Hard budget: the bounded loss is too large — solve unsharded.
		partFallbacks.Inc()
		st.FellBack = true
		m, err := mono(ctx)
		sp.Annotate("fallback", true).End()
		return m, st, err
	}

	if err := core.Validate(in, merged); err != nil {
		sp.Annotate("error", err.Error()).End()
		return nil, nil, fmt.Errorf("partition: merged matching infeasible: %w", err)
	}
	sp.End()
	return merged, st, budgetErr
}

// solveShards is the bounded shard worker pool: same drain-on-failure and
// ErrNodeLimit semantics as decomp's component pool.
func solveShards(ctx context.Context, rec *obs.Recorder, shards []Shard, solve ShardSolveFunc) ([]*core.Matching, error, error) {
	n := len(shards)
	workers := min(runtime.GOMAXPROCS(0), n)
	results := make([]*core.Matching, n)
	errs := make([]error, n)
	var failed atomic.Bool
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if failed.Load() {
					continue
				}
				if err := ctx.Err(); err != nil {
					errs[j] = err
					failed.Store(true)
					continue
				}
				sh := shards[j]
				ssp := rec.Start("partition/shard").
					Annotate("shard", j).
					Annotate("events", len(sh.Events)).
					Annotate("users", len(sh.Users))
				m, err := solve(ctx, sh.Sub, sh.Events, sh.Users, j)
				results[j], errs[j] = m, err
				if err != nil && !errors.Is(err, core.ErrNodeLimit) {
					failed.Store(true)
					ssp.Annotate("error", err.Error()).End()
					continue
				}
				ssp.Annotate("pairs", m.Size()).End()
			}
		}()
	}
	for j := 0; j < n; j++ {
		jobs <- j
	}
	close(jobs)
	wg.Wait()

	var budgetErr error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, core.ErrNodeLimit):
			budgetErr = err
		default:
			return nil, nil, err
		}
	}
	return results, budgetErr, nil
}
