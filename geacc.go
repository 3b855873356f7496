// Package geacc solves the Global Event-participant Arrangement with
// Conflict and Capacity (GEACC) problem of She, Tong, Chen and Cao,
// "Conflict-Aware Event-Participant Arrangement" (ICDE 2015).
//
// Given events with attendee capacities, users with arrangement capacities,
// pairwise event conflicts, and an interestingness (similarity) measure
// between events and users, GEACC asks for the assignment maximizing total
// interestingness subject to the capacity and conflict constraints. The
// problem is NP-hard; this package provides the paper's algorithms:
//
//   - Greedy (Greedy-GEACC): near-linear heap-based greedy,
//     1/(1+α) approximation where α = max user capacity. The paper's (and
//     this package's) recommended default.
//   - MinCostFlow (MinCostFlow-GEACC): solves the conflict-free relaxation
//     exactly by minimum-cost flow, then resolves conflicts; 1/α
//     approximation, but quartic time.
//   - Exact (Prune-GEACC): branch-and-bound with the Lemma 6 bound, warm
//     started by Greedy; optimal, exponential worst case — small instances.
//   - RandomV / RandomU: the evaluation's random baselines.
//
// # Quick start
//
//	events := []geacc.Event{{Attrs: []float64{1, 2}, Cap: 10}, ...}
//	users := []geacc.User{{Attrs: []float64{1, 3}, Cap: 2}, ...}
//	p, err := geacc.NewProblem(events, users,
//		geacc.WithEuclideanSimilarity(2, 10),
//		geacc.WithConflictPairs([][2]int{{0, 1}}))
//	m, err := p.Solve(geacc.Greedy)
//	fmt.Println(m.MaxSum(), m.Pairs())
//
// Conflicts can be given explicitly, sampled at a density, or derived from
// event schedules (time intervals plus venue travel times). See the
// examples/ directory for complete programs.
package geacc

import (
	"context"
	"errors"
	"fmt"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/partition"
	"github.com/ebsnlab/geacc/internal/sim"
)

// Event is an event: its attribute vector and attendee capacity.
// For matrix-similarity problems Attrs may be nil.
type Event = core.Event

// User is a participant: attribute vector and the maximum number of events
// they can be arranged to.
type User = core.User

// Assignment is one matched (event, user) pair with its interestingness.
type Assignment = core.Assignment

// Matching is a feasible event-participant arrangement.
type Matching = core.Matching

// Schedule describes when and where an event happens, for deriving conflicts.
type Schedule = conflict.Schedule

// Algorithm selects a solver.
type Algorithm int

// The available solvers.
const (
	// Greedy is Greedy-GEACC: the recommended default.
	Greedy Algorithm = iota
	// MinCostFlow is MinCostFlow-GEACC.
	MinCostFlow
	// Exact is Prune-GEACC; exponential worst case, use on small instances.
	Exact
	// RandomV and RandomU are the paper's baselines.
	RandomV
	RandomU
)

// String returns the algorithm's registry name.
func (a Algorithm) String() string {
	switch a {
	case Greedy:
		return "greedy"
	case MinCostFlow:
		return "mincostflow"
	case Exact:
		return "exact"
	case RandomV:
		return "random-v"
	case RandomU:
		return "random-u"
	default:
		return "unknown"
	}
}

// Problem is a GEACC instance ready to solve.
type Problem struct {
	in *core.Instance
}

// Option configures NewProblem.
type Option func(*problemConfig) error

type problemConfig struct {
	simFunc      sim.Func
	matrix       [][]float64
	pairs        [][2]int
	hasSchedules bool
	schedules    []conflict.Schedule
	speed        float64
}

// WithEuclideanSimilarity uses the paper's Equation 1 over d-dimensional
// attributes in [0, maxT].
func WithEuclideanSimilarity(d int, maxT float64) Option {
	return func(c *problemConfig) error {
		if d <= 0 || maxT <= 0 {
			return fmt.Errorf("geacc: euclidean similarity needs d > 0 and maxT > 0")
		}
		c.simFunc = sim.Euclidean(d, maxT)
		return nil
	}
}

// WithCosineSimilarity uses cosine similarity over the attribute vectors.
func WithCosineSimilarity() Option {
	return func(c *problemConfig) error {
		c.simFunc = sim.Cosine()
		return nil
	}
}

// WithSimilarityFunc plugs in a custom similarity; it must be symmetric and
// return values in [0, 1].
func WithSimilarityFunc(f func(a, b []float64) float64) Option {
	return func(c *problemConfig) error {
		if f == nil {
			return errors.New("geacc: nil similarity function")
		}
		c.simFunc = func(a, b sim.Vector) float64 { return f(a, b) }
		return nil
	}
}

// WithSimilarityMatrix fixes interestingness values explicitly:
// matrix[v][u] ∈ [0, 1]. Attribute vectors are then ignored.
func WithSimilarityMatrix(matrix [][]float64) Option {
	return func(c *problemConfig) error {
		c.matrix = matrix
		return nil
	}
}

// WithConflictPairs declares conflicting event pairs by index.
func WithConflictPairs(pairs [][2]int) Option {
	return func(c *problemConfig) error {
		c.pairs = append(c.pairs, pairs...)
		return nil
	}
}

// WithSchedules derives conflicts from event schedules: two events conflict
// when their intervals overlap or the gap is shorter than the venue travel
// time at the given speed. len(schedules) must equal the number of events.
func WithSchedules(schedules []Schedule, travelSpeed float64) Option {
	return func(c *problemConfig) error {
		if travelSpeed <= 0 {
			return fmt.Errorf("geacc: non-positive travel speed %v", travelSpeed)
		}
		c.hasSchedules = true
		c.schedules = schedules
		c.speed = travelSpeed
		return nil
	}
}

// NewProblem builds a GEACC instance. Exactly one similarity source is
// required (a similarity function option or WithSimilarityMatrix); conflict
// options may be combined (their union applies).
func NewProblem(events []Event, users []User, opts ...Option) (*Problem, error) {
	var cfg problemConfig
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.simFunc != nil && cfg.matrix != nil {
		return nil, errors.New("geacc: both a similarity function and a matrix given")
	}
	if cfg.simFunc == nil && cfg.matrix == nil {
		return nil, errors.New("geacc: a similarity function or matrix is required")
	}

	cf := conflict.New(len(events))
	for _, p := range cfg.pairs {
		if p[0] < 0 || p[0] >= len(events) || p[1] < 0 || p[1] >= len(events) {
			return nil, fmt.Errorf("geacc: conflict pair %v out of range", p)
		}
		cf.Add(p[0], p[1])
	}
	if cfg.hasSchedules {
		if len(cfg.schedules) != len(events) {
			return nil, fmt.Errorf("geacc: %d schedules for %d events", len(cfg.schedules), len(events))
		}
		derived, err := conflict.FromSchedules(cfg.schedules, cfg.speed)
		if err != nil {
			return nil, err
		}
		for _, p := range derived.Pairs() {
			cf.Add(p[0], p[1])
		}
	}

	var in *core.Instance
	var err error
	if cfg.matrix != nil {
		in, err = core.NewMatrixInstance(events, users, cf, cfg.matrix)
	} else {
		in, err = core.NewInstance(events, users, cf, cfg.simFunc)
	}
	if err != nil {
		return nil, err
	}
	return &Problem{in: in}, nil
}

// NumEvents returns |V|.
func (p *Problem) NumEvents() int { return p.in.NumEvents() }

// NumUsers returns |U|.
func (p *Problem) NumUsers() int { return p.in.NumUsers() }

// Similarity returns the interestingness value of event v for user u.
func (p *Problem) Similarity(v, u int) float64 { return p.in.Similarity(v, u) }

// Conflicting reports whether events i and j conflict.
func (p *Problem) Conflicting(i, j int) bool { return p.in.Conflicting(i, j) }

// SolveOptions tunes Solve.
type SolveOptions struct {
	// Seed drives the random baselines (RandomV/RandomU). Deterministic
	// algorithms ignore it.
	Seed int64
	// ExactNodeLimit bounds Prune-GEACC's search; 0 means unlimited. When
	// the limit trips, Solve returns the best matching found along with
	// ErrBudgetExceeded. Under Decompose the limit applies per component.
	ExactNodeLimit int64
	// Decompose shards the instance along the connected components of its
	// conflict/similarity union graph and solves the components in parallel
	// (see internal/decomp). The result is exact for Exact and keeps the
	// paper approximation ratios for the other algorithms; on multi-community
	// instances it is substantially faster than a monolithic solve.
	Decompose bool
	// DecomposeWorkers bounds the component worker pool; <= 0 means
	// GOMAXPROCS. The matching is identical for any worker count.
	DecomposeWorkers int
	// ApproxShard, when non-nil, enables approximate sharding of oversized
	// components (implies Decompose): components whose |V|·|U| exceeds
	// MaxArea split into balanced sub-shards with a bounded-drift merge
	// (see internal/partition). Off (nil), results are bit-identical to
	// the plain solve.
	ApproxShard *ApproxShardOptions
}

// ApproxShardOptions tunes the approximate sharding of giant components.
// Zero fields take the internal/partition defaults.
type ApproxShardOptions struct {
	// MaxArea is the per-shard |V|·|U| target and the threshold above
	// which a component is sharded at all; <= 0 means the default (20000).
	MaxArea int64
	// Strategy is "modularity" (default) or "bfs".
	Strategy string
	// DriftBudget is the hard cap on the bounded relative MaxSum loss per
	// sharded component; a breach falls back to the monolithic component
	// solve. <= 0 means the default (0.01).
	DriftBudget float64
}

// ErrBudgetExceeded reports that Exact hit its node limit; the returned
// matching is feasible but possibly sub-optimal.
var ErrBudgetExceeded = core.ErrNodeLimit

// Solve runs the chosen algorithm with default options.
func (p *Problem) Solve(algo Algorithm) (*Matching, error) {
	return p.SolveOpts(algo, SolveOptions{})
}

// SolveOpts runs the chosen algorithm.
func (p *Problem) SolveOpts(algo Algorithm, opt SolveOptions) (*Matching, error) {
	spec := decomp.Spec{
		Algo:      algo.String(),
		Seed:      opt.Seed,
		Decompose: opt.Decompose,
		Workers:   opt.DecomposeWorkers,
		NodeLimit: opt.ExactNodeLimit,
	}
	if as := opt.ApproxShard; as != nil {
		spec.Shard = &partition.Options{
			MaxArea:     as.MaxArea,
			Strategy:    partition.Strategy(as.Strategy),
			DriftBudget: as.DriftBudget,
		}
	}
	return p.run(spec)
}

// run solves p under spec through decomp.Run, the pipeline every surface
// shares. Every call solves afresh: the package memoizes nothing.
func (p *Problem) run(spec decomp.Spec) (*Matching, error) {
	res, err := decomp.Run(context.Background(), p.in, spec, decomp.Env{})
	if res == nil {
		return nil, err
	}
	return res.M, err
}

// UpperBound returns MaxSum(M∅), the optimum of the conflict-free
// relaxation — an upper bound on the constrained optimum (Corollary 1).
// Useful for judging how close an approximate matching is.
func (p *Problem) UpperBound() float64 {
	return core.RelaxedUpperBound(p.in)
}

// Validate checks that a matching is feasible for this problem.
func (p *Problem) Validate(m *Matching) error {
	return core.Validate(p.in, m)
}
