package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/partition"
)

// SolverBenchPoint is one entry of BENCH_solvers.json, the repo's perf
// trajectory: the latency AND quality of one solver on one pinned
// instance, so a regression in either direction shows up as a diff of the
// committed snapshot. Gap is (RelaxedUpperBound - MaxSum) /
// RelaxedUpperBound — the Corollary 1 optimality gap, 0 when the solve
// meets the relaxation bound.
type SolverBenchPoint struct {
	Name    string  `json:"name"`
	NV      int     `json:"n_v"`
	NU      int     `json:"n_u"`
	NsPerOp float64 `json:"ns_per_op"`
	MaxSum  float64 `json:"maxsum"`
	Gap     float64 `json:"gap"`
	// Drift is the measured MaxSum loss of an approximately sharded solve
	// relative to its monolithic counterpart (partition_sharded points only).
	Drift float64 `json:"drift,omitempty"`
}

// solverBenchCase pins one benchmark instance: the generator seed and
// shape are fixed so snapshots diff meaningfully across commits.
type solverBenchCase struct {
	algo        string
	nv, nu      int
	eventCapMax int
	userCapMax  int
	communities int  // > 0: clustered multi-community instance
	decompose   bool // route the solve through internal/decomp
	large       bool // only run when Options.LargeShapes is set
}

// name encodes the case for the snapshot: `greedy-decomp/v100_u2000_c16`.
func (c solverBenchCase) name() string {
	algo := c.algo
	if c.decompose {
		algo += "-decomp"
	}
	shape := fmt.Sprintf("v%d_u%d", c.nv, c.nu)
	if c.communities > 0 {
		shape += fmt.Sprintf("_c%d", c.communities)
	}
	return algo + "/" + shape
}

// solverBenchCases is the pinned set: a size sweep for the two
// polynomial-time solvers and deliberately tiny instances for the exact
// search, whose branch-and-bound tree grows exponentially with |V|·|U|.
func solverBenchCases() []solverBenchCase {
	var cases []solverBenchCase
	for _, algo := range []string{"greedy", "mincostflow"} {
		for _, shape := range [][2]int{{10, 50}, {20, 100}, {40, 200}, {80, 400}} {
			cases = append(cases, solverBenchCase{
				algo: algo, nv: shape[0], nu: shape[1],
				eventCapMax: 10, userCapMax: 4,
			})
		}
	}
	// Large shapes: big enough that the batched-kernel scan path dominates
	// the profile (the small sweep above mostly measures per-solve setup).
	for _, algo := range []string{"greedy", "mincostflow"} {
		for _, shape := range [][2]int{{50, 500}, {100, 2000}} {
			cases = append(cases, solverBenchCase{
				algo: algo, nv: shape[0], nu: shape[1],
				eventCapMax: 10, userCapMax: 4, large: true,
			})
		}
	}
	for _, shape := range [][2]int{{3, 6}, {4, 8}, {5, 10}, {6, 12}} {
		cases = append(cases, solverBenchCase{
			algo: "exact", nv: shape[0], nu: shape[1],
			eventCapMax: 3, userCapMax: 2,
		})
	}
	// Decomposed vs monolithic on multi-community instances: the same
	// pinned clustered workload solved whole and sharded, so the snapshot
	// certifies both the speedup and zero MaxSum drift between the two.
	for _, algo := range []string{"greedy", "mincostflow"} {
		for _, dec := range []bool{false, true} {
			cases = append(cases, solverBenchCase{
				algo: algo, nv: 100, nu: 2000, communities: 16, decompose: dec,
				eventCapMax: 10, userCapMax: 4, large: true,
			})
		}
	}
	// Exact stays feasible whole-instance because zero-similarity pairs are
	// never branchable, but per-shard search is the shape users should run.
	for _, dec := range []bool{false, true} {
		cases = append(cases, solverBenchCase{
			algo: "exact", nv: 12, nu: 24, communities: 4, decompose: dec,
			eventCapMax: 3, userCapMax: 2,
		})
	}
	return cases
}

// RunSolverBench measures every pinned case: Reps runs each (default 3
// here, not Options' usual 1), keeping the fastest wall clock as ns_per_op
// (minimum is the stablest point estimate under scheduler noise) and the
// matching of the final run for quality. The root Seed perturbs only the
// measurement repetitions, never the instances — those stay pinned.
func RunSolverBench(opt Options) ([]SolverBenchPoint, error) {
	if opt.Reps < 1 {
		opt.Reps = 3
	}
	var points []SolverBenchPoint
	// The relaxed upper bound is a property of the instance, not the solver;
	// cache it per shape (communities included — the plain and clustered
	// v100_u2000 are different instances) so the sweep pays for each
	// relaxation once.
	ubCache := map[[3]int]float64{}
	for _, c := range solverBenchCases() {
		if c.large && !opt.LargeShapes {
			continue
		}
		// The instance seed derives from the shape, not from opt.Seed:
		// every run of `make bench-json` benchmarks the same instances.
		var in *core.Instance
		var err error
		if c.communities > 0 {
			cfg := dataset.DefaultClustered()
			cfg.NumEvents = c.nv
			cfg.NumUsers = c.nu
			cfg.Communities = c.communities
			cfg.EventCapMax = c.eventCapMax
			cfg.UserCapMax = c.userCapMax
			cfg.Seed = int64(1000*c.nv + c.nu)
			in, err = cfg.Generate()
		} else {
			cfg := dataset.DefaultSynthetic()
			cfg.NumEvents = c.nv
			cfg.NumUsers = c.nu
			cfg.EventCapMax = c.eventCapMax
			cfg.UserCapMax = c.userCapMax
			cfg.Seed = int64(1000*c.nv + c.nu)
			in, err = cfg.Generate()
		}
		if err != nil {
			return nil, fmt.Errorf("bench: generate %s: %w", c.name(), err)
		}
		var best float64
		var m *core.Matching
		for rep := 0; rep < opt.Reps; rep++ {
			// Microsecond-scale cases are timer-noise-dominated when
			// sampled once, so each rep re-runs until ~20ms of measured
			// work accumulates and keeps the fastest single run. Cases
			// slower than that break after one iteration, unchanged.
			var spent float64
			for iter := 0; ; iter++ {
				mm, seconds, _, err := MeasureAlgo(Options{Decompose: c.decompose}, in, c.algo, opt.Seed+int64(rep))
				if err != nil {
					return nil, fmt.Errorf("bench: %s: %w", c.name(), err)
				}
				if m == nil || seconds < best {
					best = seconds
				}
				m = mm
				spent += seconds
				if spent >= 0.02 || iter >= 49 {
					break
				}
			}
		}
		shapeKey := [3]int{c.nv, c.nu, c.communities}
		ub, ok := ubCache[shapeKey]
		if !ok {
			ub = core.RelaxedUpperBound(in)
			ubCache[shapeKey] = ub
		}
		gap := 0.0
		if ub > 0 {
			if gap = (ub - m.MaxSum()) / ub; gap < 0 {
				gap = 0
			}
		}
		points = append(points, SolverBenchPoint{
			Name:    c.name(),
			NV:      c.nv,
			NU:      c.nu,
			NsPerOp: best * 1e9,
			MaxSum:  m.MaxSum(),
			Gap:     gap,
		})
	}
	warmPoints, err := runWarmDeltaBench(opt)
	if err != nil {
		return nil, err
	}
	points = append(points, warmPoints...)
	partPoints, err := runPartitionBench(opt)
	if err != nil {
		return nil, err
	}
	points = append(points, partPoints...)
	sort.Slice(points, func(i, j int) bool { return points[i].Name < points[j].Name })
	return points, nil
}

// warmDeltaShapes pins the dirty-component delta re-solve benchmark. Each
// shape is one component (the whole instance) fed a forward arrival chain:
// every step appends one user, which is exactly what a dirty-scope
// rebalance re-solves after an arrival delta.
var warmDeltaShapes = [][2]int{{20, 200}, {30, 400}}

// warmDeltaSteps is the arrival chain's length: how many 1-user delta
// re-solves each timed repetition runs. Every step is a real delta against
// the cached state of the preceding step, never an identical repeat.
const warmDeltaSteps = 8

// warmDeltaReps is the least number of repetitions the warm-delta gate
// takes its best step times over, whatever Options.Reps says: the count
// `make bench-json` pins.
const warmDeltaReps = 3

// runWarmDeltaBench pins `mcflow_warm_delta/<shape>` against its cold
// baseline `mcflow_cold_delta/<shape>`: the same pinned arrival chain
// solved through core.MinCostFlowWarmCtx with a warm cache (filled once,
// untimed, per repetition) and through the cold core.MinCostFlowCtx;
// ns_per_op is the mean over steps of each step's best time. It
// fails outright if any step's warm MaxSum drifts from the cold one or if
// the warm path loses its required speedup, so `make bench-compare` gates
// the optimization structurally, not just against last run's numbers.
func runWarmDeltaBench(opt Options) ([]SolverBenchPoint, error) {
	ctx := context.Background()
	var points []SolverBenchPoint
	for _, shape := range warmDeltaShapes {
		nv, nu := shape[0], shape[1]
		name := fmt.Sprintf("v%d_u%d", nv, nu)
		cfg := dataset.DefaultSynthetic()
		cfg.NumEvents = nv
		cfg.NumUsers = nu
		cfg.EventCapMax = 10
		cfg.UserCapMax = 4
		cfg.Seed = int64(1000*nv + nu)
		in0, err := cfg.Generate()
		if err != nil {
			return nil, fmt.Errorf("bench: generate mcflow_warm_delta/%s: %w", name, err)
		}
		chain, ids, err := warmDeltaChain(in0, nv, nu)
		if err != nil {
			return nil, fmt.Errorf("bench: mcflow_warm_delta/%s: %w", name, err)
		}
		events := idRange(nv)

		// Warm and cold alternate step by step, so host drift hits both
		// sides alike, and each side keeps its best time per step over
		// warmDeltaReps: one scheduler hiccup cannot decide the gate.
		warmStep, coldStep := make([]float64, warmDeltaSteps), make([]float64, warmDeltaSteps)
		for s := range warmStep {
			warmStep[s], coldStep[s] = math.Inf(1), math.Inf(1)
		}
		warmSums := make([]float64, warmDeltaSteps)
		coldSums := make([]float64, warmDeltaSteps)
		for rep := 0; rep < max(opt.Reps, warmDeltaReps); rep++ {
			wc := core.NewWarmCache(4)
			if _, err := core.MinCostFlowWarmCtx(ctx, chain[0], events, ids[0], wc); err != nil {
				return nil, fmt.Errorf("bench: mcflow_warm_delta/%s warm fill: %w", name, err)
			}
			for s := 1; s <= warmDeltaSteps; s++ {
				start := time.Now()
				fr, err := core.MinCostFlowWarmCtx(ctx, chain[s], events, ids[s], wc)
				if err != nil {
					return nil, fmt.Errorf("bench: mcflow_warm_delta/%s: %w", name, err)
				}
				warmStep[s-1] = min(warmStep[s-1], time.Since(start).Seconds())
				warmSums[s-1] = fr.Matching.MaxSum()

				start = time.Now()
				res, err := core.MinCostFlowCtx(ctx, chain[s], core.FlowOptions{})
				if err != nil {
					return nil, fmt.Errorf("bench: mcflow_cold_delta/%s: %w", name, err)
				}
				coldStep[s-1] = min(coldStep[s-1], time.Since(start).Seconds())
				coldSums[s-1] = res.Matching.MaxSum()
			}
		}
		var warmBest, coldBest float64
		for s := range warmStep {
			warmBest += warmStep[s] / warmDeltaSteps
			coldBest += coldStep[s] / warmDeltaSteps
		}
		for s := range warmSums {
			if warmSums[s] != coldSums[s] {
				return nil, fmt.Errorf("bench: mcflow_warm_delta/%s step %d: warm MaxSum %v drifted from cold %v",
					name, s+1, warmSums[s], coldSums[s])
			}
		}
		if warmBest*1.5 > coldBest {
			return nil, fmt.Errorf("bench: mcflow_warm_delta/%s: warm %.0fns/op is not >= 1.5x faster than cold %.0fns/op",
				name, warmBest*1e9, coldBest*1e9)
		}
		final := chain[warmDeltaSteps]
		ub := core.RelaxedUpperBound(final)
		gap := 0.0
		if ub > 0 {
			if gap = (ub - warmSums[warmDeltaSteps-1]) / ub; gap < 0 {
				gap = 0
			}
		}
		points = append(points,
			SolverBenchPoint{
				Name: "mcflow_warm_delta/" + name,
				NV:   nv, NU: nu + warmDeltaSteps,
				NsPerOp: warmBest * 1e9, MaxSum: warmSums[warmDeltaSteps-1], Gap: gap,
			},
			SolverBenchPoint{
				Name: "mcflow_cold_delta/" + name,
				NV:   nv, NU: nu + warmDeltaSteps,
				NsPerOp: coldBest * 1e9, MaxSum: coldSums[warmDeltaSteps-1], Gap: gap,
			})
	}
	return points, nil
}

// partitionBench pins the approximate-sharding benchmark workload: the
// dense clustered v100_u2000_c16 shape with a 5% bridge-user fraction, so
// the sixteen communities chain into ONE giant similarity component and the
// decomposition layer alone cannot split it.
const (
	partitionBenchBridgeFrac = 0.05
	partitionBenchMaxArea    = 20000
	partitionBenchSpeedup    = 5.0
)

// runPartitionBench pins `partition_sharded/<shape>` against its monolithic
// baseline `partition_mono/<shape>`: the same bridged giant-component
// instance solved through internal/decomp whole (one component, one
// monolithic min-cost flow) and with Options.Shard routing it through
// internal/partition. It fails outright if the bridge workload does not
// actually form one giant component, if the measured MaxSum drift exceeds
// the default drift budget, or if sharding loses its required speedup — so
// `make bench-json` gates the optimization structurally, not just against
// last run's numbers.
func runPartitionBench(opt Options) ([]SolverBenchPoint, error) {
	if !opt.LargeShapes {
		return nil, nil
	}
	ctx := context.Background()
	nv, nu := 100, 2000
	name := fmt.Sprintf("v%d_u%d_c16", nv, nu)
	cfg := dataset.DefaultClustered()
	cfg.NumEvents = nv
	cfg.NumUsers = nu
	cfg.Communities = 16
	cfg.EventCapMax = 10
	cfg.UserCapMax = 4
	cfg.BridgeFrac = partitionBenchBridgeFrac
	cfg.Seed = int64(1000*nv + nu)
	in, err := cfg.Generate()
	if err != nil {
		return nil, fmt.Errorf("bench: generate partition/%s: %w", name, err)
	}
	d, err := decomp.DecomposeContext(ctx, in)
	if err != nil {
		return nil, fmt.Errorf("bench: partition/%s: %w", name, err)
	}
	if got := len(d.Components); got != 1 {
		return nil, fmt.Errorf("bench: partition/%s: bridged workload split into %d components, want one giant component",
			name, got)
	}

	shard := partition.Options{MaxArea: partitionBenchMaxArea}.Normalized()
	monoBest, shardBest := math.Inf(1), math.Inf(1)
	var monoSum, shardSum float64
	for rep := 0; rep < opt.Reps; rep++ {
		m, sec, _, err := MeasureAlgo(Options{Decompose: true}, in, "mincostflow", opt.Seed+int64(rep))
		if err != nil {
			return nil, fmt.Errorf("bench: partition_mono/%s: %w", name, err)
		}
		if sec < monoBest {
			monoBest = sec
		}
		monoSum = m.MaxSum()

		m, sec, _, err = MeasureAlgo(Options{Shard: &shard}, in, "mincostflow", opt.Seed+int64(rep))
		if err != nil {
			return nil, fmt.Errorf("bench: partition_sharded/%s: %w", name, err)
		}
		if sec < shardBest {
			shardBest = sec
		}
		shardSum = m.MaxSum()
	}
	drift := 0.0
	if monoSum > 0 {
		if drift = (monoSum - shardSum) / monoSum; drift < 0 {
			drift = 0
		}
	}
	if drift > shard.DriftBudget {
		return nil, fmt.Errorf("bench: partition_sharded/%s: measured drift %.4f exceeds the %.4f budget (mono %.3f vs sharded %.3f)",
			name, drift, shard.DriftBudget, monoSum, shardSum)
	}
	if shardBest*partitionBenchSpeedup > monoBest {
		return nil, fmt.Errorf("bench: partition_sharded/%s: sharded %.0fms/op is not >= %.0fx faster than monolithic %.0fms/op",
			name, shardBest*1e3, partitionBenchSpeedup, monoBest*1e3)
	}
	ub := core.RelaxedUpperBound(in)
	gapOf := func(sum float64) float64 {
		if ub <= 0 {
			return 0
		}
		if g := (ub - sum) / ub; g > 0 {
			return g
		}
		return 0
	}
	return []SolverBenchPoint{
		{
			Name: "partition_mono/" + name,
			NV:   nv, NU: nu,
			NsPerOp: monoBest * 1e9, MaxSum: monoSum, Gap: gapOf(monoSum),
		},
		{
			Name: "partition_sharded/" + name,
			NV:   nv, NU: nu,
			NsPerOp: shardBest * 1e9, MaxSum: shardSum, Gap: gapOf(shardSum), Drift: drift,
		},
	}, nil
}

// warmDeltaChain builds the pinned arrival chain: chain[s] is in0 with s
// extra users appended (seeded attrs, append-only ids — the discipline the
// arranger itself follows), ids[s] the matching parent-id list.
func warmDeltaChain(in0 *core.Instance, nv, nu int) ([]*core.Instance, [][]int, error) {
	rng := rand.New(rand.NewSource(int64(nv)))
	dim := len(in0.Users[0].Attrs)
	chain := make([]*core.Instance, warmDeltaSteps+1)
	ids := make([][]int, warmDeltaSteps+1)
	chain[0] = in0
	ids[0] = idRange(nu)
	users := append([]core.User(nil), in0.Users...)
	for s := 1; s <= warmDeltaSteps; s++ {
		attrs := make([]float64, dim)
		for i := range attrs {
			attrs[i] = rng.Float64() * 100
		}
		users = append(users, core.User{Attrs: attrs, Cap: 1 + rng.Intn(4)})
		in, err := core.NewInstance(in0.Events, append([]core.User(nil), users...), in0.Conflicts, in0.SimFunc)
		if err != nil {
			return nil, nil, err
		}
		chain[s] = in
		ids[s] = idRange(nu + s)
	}
	return chain, ids, nil
}

// idRange returns [0, n) — a whole-instance component's parent-id list.
func idRange(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// WriteSolverBenchJSON writes the trajectory snapshot with stable ordering
// and indentation, so successive runs produce reviewable diffs.
func WriteSolverBenchJSON(w io.Writer, points []SolverBenchPoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(points)
}
