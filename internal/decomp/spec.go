package decomp

import (
	"errors"
	"flag"
	"fmt"
	"net/url"
	"strconv"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/partition"
	"github.com/ebsnlab/geacc/internal/solvecache"
)

// Spec is one solve request's knobs — the single description the facade,
// POST /solve, rebalance and the command-line tools build (from options,
// the query string, or flags) and hand to Run or Options. It carries no
// instance and no caches.
type Spec struct {
	// Algo is a registry solver name (core.SolverNames) or "portfolio".
	Algo string
	// Seed drives the random baselines; deterministic solvers ignore it.
	Seed int64
	// Decompose solves the connected components of the conflict/similarity
	// union graph separately (see DecomposeContext). Shard implies it.
	Decompose bool
	// Diag attaches the Diagnostics artifact to the result.
	Diag bool
	// NodeLimit bounds exact's search (per component when decomposed); 0
	// means unlimited.
	NodeLimit int64
	// Shard, when non-nil, routes components larger than its MaxArea
	// through internal/partition. Zero fields take the partition defaults.
	Shard *partition.Options
}

// DefaultSpec is the spec an empty query string or an unset flag set
// describes: greedy, seed 1, monolithic.
func DefaultSpec() Spec { return Spec{Algo: "greedy", Seed: 1} }

// Decomposed reports whether the solve runs over the decomposition.
func (s Spec) Decomposed() bool { return s.Decompose || s.Shard != nil }

// Validate rejects a spec no surface may run: an unknown algorithm, the
// portfolio combined with decomposition, or an unknown shard strategy.
func (s Spec) Validate() error {
	if s.Algo == "portfolio" {
		if s.Decomposed() {
			return errors.New("decomp: decompose does not compose with the portfolio (it already parallelizes)")
		}
	} else if err := core.LookupSolver(s.Algo); err != nil {
		return err
	}
	if s.Shard != nil {
		return validShard(*s.Shard)
	}
	return nil
}

func validShard(o partition.Options) error {
	_, err := partition.ParseStrategy(string(o.Strategy))
	return err
}

// Options is the decomposed-solve configuration s selects; the reuse
// caches (SolveCache, SimID, WarmCache) stay the caller's to set.
func (s Spec) Options() Options {
	return Options{Seed: s.Seed, ExactNodeLimit: s.NodeLimit, Shard: s.Shard}
}

// Key is the memo-cache key of solving in under s: the one builder of
// whole-instance solvecache keys. It hashes only what can change the
// result — the seed only for the random baselines (deterministicAlgos
// ignore it), the shard tuning only when sharding. ok is false when the
// result must not be cached: the portfolio (its winner is a wall-clock
// race), or an instance the cache cannot hash (callback similarity with no
// simID).
func (s Spec) Key(in *core.Instance, simID string) (key solvecache.Key, ok bool) {
	if s.Algo == "portfolio" {
		return key, false
	}
	ks := solvecache.KeySpec{
		Algo:      s.Algo,
		SimID:     simID,
		Decompose: s.Decomposed(),
		Diag:      s.Diag,
		NodeLimit: s.NodeLimit,
	}
	if !deterministicAlgos[s.Algo] {
		ks.Seed = s.Seed
	}
	if s.Shard != nil {
		sh := s.Shard.Normalized()
		ks.ApproxShard = true
		ks.ShardMaxArea = sh.MaxArea
		ks.ShardStrategy = string(sh.Strategy)
		ks.ShardDriftBudget = sh.DriftBudget
	}
	return solvecache.InstanceKey(in, ks)
}

// ParseQuery reads a spec from a /solve or rebalance query string. Absent
// (or empty) parameters keep their value from def — the service defaults,
// including a server-wide shard default that ?approx_shard=0 opts out of.
// Malformed values and invalid combinations are errors; parameters it does
// not know are ignored. Shard options come back normalized.
func ParseQuery(q url.Values, def Spec) (Spec, error) {
	s := def
	if v := q.Get("algo"); v != "" {
		s.Algo = v
	}
	var err error
	if s.Seed, err = queryInt(q, "seed", s.Seed); err != nil {
		return Spec{}, err
	}
	if s.Decompose, err = queryBool(q, "decompose", s.Decompose); err != nil {
		return Spec{}, err
	}
	if s.Diag, err = queryBool(q, "diag", s.Diag); err != nil {
		return Spec{}, err
	}
	shard, err := queryBool(q, "approx_shard", s.Shard != nil)
	if err != nil {
		return Spec{}, err
	}
	var sh partition.Options
	if s.Shard != nil {
		sh = *s.Shard
	}
	if v := q.Get("shard_max_area"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			return Spec{}, fmt.Errorf("decomp: bad shard_max_area %q (want a positive integer)", v)
		}
		sh.MaxArea = n
	}
	if v := q.Get("shard_strategy"); v != "" {
		sh.Strategy = partition.Strategy(v)
	}
	if v := q.Get("shard_drift_budget"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f > 0) {
			return Spec{}, fmt.Errorf("decomp: bad shard_drift_budget %q (want a positive float)", v)
		}
		sh.DriftBudget = f
	}
	if err := validShard(sh); err != nil {
		return Spec{}, err
	}
	s.Shard = nil
	if shard {
		sh = sh.Normalized()
		s.Shard = &sh
	}
	return s, s.Validate()
}

// queryBool is the codec's one boolean parser: 1/true/yes and 0/false/no,
// anything else an error; absent keeps def.
func queryBool(q url.Values, name string, def bool) (bool, error) {
	switch v := q.Get(name); v {
	case "":
		return def, nil
	case "1", "true", "yes":
		return true, nil
	case "0", "false", "no":
		return false, nil
	default:
		return false, fmt.Errorf("decomp: bad %s %q (want 1/true/yes or 0/false/no)", name, v)
	}
}

func queryInt(q url.Values, name string, def int64) (int64, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("decomp: bad %s %q (want an integer)", name, v)
	}
	return n, nil
}

// BindFlags registers the named solve flags on fs — any of algo, seed,
// decompose, diag, approx-shard, shard-max-area,
// shard-strategy, shard-drift-budget — defaulting to DefaultSpec, and
// returns the function that, once fs has parsed, resolves them into a
// validated Spec. Unset shard tuning stays zero, so the partition
// defaults apply.
func BindFlags(fs *flag.FlagSet, names ...string) func() (Spec, error) {
	s := DefaultSpec()
	var shard bool
	var sh partition.Options
	for _, name := range names {
		switch name {
		case "algo":
			fs.StringVar(&s.Algo, name, s.Algo, fmt.Sprintf("algorithm: %v or portfolio", core.SolverNames()))
		case "seed":
			fs.Int64Var(&s.Seed, name, s.Seed, "seed for the random baselines")
		case "decompose":
			fs.BoolVar(&s.Decompose, name, false, "shard along conflict/similarity components and solve them in parallel")
		case "diag":
			fs.BoolVar(&s.Diag, name, false, "report per-solve diagnostics (shape, phases, relaxation bound, gap) as JSON")
		case "approx-shard":
			fs.BoolVar(&shard, name, false, "split oversized components into balanced sub-shards with a bounded-drift "+
				"merge (implies -decompose; geacc-server: the /solve and rebalance default, ?approx_shard=0 opts out)")
		case "shard-max-area":
			fs.Int64Var(&sh.MaxArea, name, 0, fmt.Sprintf(
				"with -approx-shard, shard components whose |V|·|U| exceeds this area (0 = %d)", partition.DefaultMaxArea))
		case "shard-strategy":
			fs.Func(name, "with -approx-shard, split heuristic: modularity (default) or bfs", func(v string) error {
				sh.Strategy = partition.Strategy(v)
				return nil
			})
		case "shard-drift-budget":
			fs.Float64Var(&sh.DriftBudget, name, 0, fmt.Sprintf(
				"with -approx-shard, max MaxSum drift estimate before the monolithic fallback (0 = %v)", partition.DefaultDriftBudget))
		default:
			panic("decomp: no solve flag " + name)
		}
	}
	return func() (Spec, error) {
		out := s
		out.Shard = nil
		if shard {
			o := sh
			out.Shard = &o
		}
		return out, out.Validate()
	}
}
