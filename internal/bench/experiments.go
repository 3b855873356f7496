package bench

import (
	"fmt"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
)

// Experiment regenerates one figure (or figure column) of the paper.
type Experiment struct {
	ID     string // registry key, e.g. "fig3v"
	Title  string
	XLabel string
	Run    func(opt Options) ([]Point, error)
}

// compareAlgos are the four algorithms of Figs. 3 and 4.
var compareAlgos = []string{"greedy", "mincostflow", "random-v", "random-u"}

// Registry returns every experiment in presentation order: the paper's
// tables, the four figures, and this reproduction's ablations.
func Registry() []Experiment {
	return []Experiment{
		{
			ID:     "table1",
			Title:  "TABLE I: toy instance walkthroughs (exact 4.39, greedy 4.28, mincostflow 4.13)",
			XLabel: "instance",
			Run:    runTable1,
		},
		{
			ID:     "table2",
			Title:  "TABLE II: simulated Meetup cities (statistics + greedy solve)",
			XLabel: "city",
			Run:    runTable2,
		},
		{
			ID:     "fig3v",
			Title:  "Fig 3 col 1: effect of |V| (MaxSum, time, memory)",
			XLabel: "|V|",
			Run: func(opt Options) ([]Point, error) {
				return sweepSynthetic("fig3v", compareAlgos,
					[]float64{20, 50, 100, 200, 500},
					func(c *dataset.SyntheticConfig, x float64) { c.NumEvents = int(x) },
					opt, scaleEvents|scaleUsers)
			},
		},
		{
			ID:     "fig3u",
			Title:  "Fig 3 col 2: effect of |U|",
			XLabel: "|U|",
			Run: func(opt Options) ([]Point, error) {
				return sweepSynthetic("fig3u", compareAlgos,
					[]float64{100, 200, 500, 1000, 2000, 5000},
					func(c *dataset.SyntheticConfig, x float64) { c.NumUsers = int(x) },
					opt, scaleEvents|scaleUsers)
			},
		},
		{
			ID:     "fig3d",
			Title:  "Fig 3 col 3: effect of dimensionality d",
			XLabel: "d",
			Run: func(opt Options) ([]Point, error) {
				return sweepSynthetic("fig3d", compareAlgos,
					[]float64{2, 5, 10, 15, 20},
					func(c *dataset.SyntheticConfig, x float64) { c.Dim = int(x) },
					opt, scaleEvents|scaleUsers)
			},
		},
		{
			ID:     "fig3cf",
			Title:  "Fig 3 col 4: effect of conflict-set size |CF|",
			XLabel: "|CF| / (|V|(|V|-1)/2)",
			Run: func(opt Options) ([]Point, error) {
				return sweepSynthetic("fig3cf", compareAlgos,
					[]float64{0, 0.25, 0.5, 0.75, 1},
					func(c *dataset.SyntheticConfig, x float64) { c.CFRatio = x },
					opt, scaleEvents|scaleUsers)
			},
		},
		{
			ID:     "fig4cv",
			Title:  "Fig 4 col 1: effect of event capacity c_v ~ Uniform[1, max]",
			XLabel: "max c_v",
			Run: func(opt Options) ([]Point, error) {
				return sweepSynthetic("fig4cv", compareAlgos,
					[]float64{10, 20, 50, 100, 200},
					func(c *dataset.SyntheticConfig, x float64) { c.EventCapMax = int(x) },
					opt, scaleEvents|scaleUsers)
			},
		},
		{
			ID:     "fig4cu",
			Title:  "Fig 4 col 2: effect of user capacity c_u ~ Uniform[1, max]",
			XLabel: "max c_u",
			Run: func(opt Options) ([]Point, error) {
				return sweepSynthetic("fig4cu", compareAlgos,
					[]float64{2, 4, 6, 8, 10},
					func(c *dataset.SyntheticConfig, x float64) { c.UserCapMax = int(x) },
					opt, scaleEvents|scaleUsers)
			},
		},
		{
			ID:     "fig4dist",
			Title:  "Fig 4 col 3: Zipf attributes + Normal capacities (vary |V|)",
			XLabel: "|V|",
			Run: func(opt Options) ([]Point, error) {
				return sweepSynthetic("fig4dist", compareAlgos,
					[]float64{20, 50, 100, 200, 500},
					func(c *dataset.SyntheticConfig, x float64) {
						c.NumEvents = int(x)
						c.AttrDist = dataset.Zipf
						c.EventCapDist = dataset.Normal
						c.UserCapDist = dataset.Normal
					},
					opt, scaleEvents|scaleUsers)
			},
		},
		{
			ID:     "fig4real",
			Title:  "Fig 4 col 4: real dataset (Auckland), vary |CF|",
			XLabel: "|CF| / (|V|(|V|-1)/2)",
			Run:    runFig4Real,
		},
		{
			ID:     "fig5ab",
			Title:  "Fig 5a/5b: scalability of Greedy-GEACC",
			XLabel: "|U|",
			Run:    runFig5Scalability,
		},
		{
			ID:     "fig5cd",
			Title:  "Fig 5c/5d: approximate vs exact (MaxSum and time)",
			XLabel: "|CF| / (|V|(|V|-1)/2)",
			Run:    runFig5Effectiveness,
		},
		{
			ID:     "fig6a",
			Title:  "Fig 6a: averaged pruned depth of Prune-GEACC",
			XLabel: "|U|",
			Run:    runFig6PrunedDepth,
		},
		{
			ID:     "fig6bcd",
			Title:  "Fig 6b/6c/6d: Prune-GEACC vs exhaustive search",
			XLabel: "|CF| / (|V|(|V|-1)/2)",
			Run:    runFig6VsExhaustive,
		},
		{
			ID:     "ablation-resolution",
			Title:  "Ablation: MinCostFlow-GEACC conflict resolution (greedy vs exact MWIS)",
			XLabel: "|CF| / (|V|(|V|-1)/2)",
			Run:    runAblationResolution,
		},
		{
			ID:     "decomp",
			Title:  "Decomposition: monolithic vs component-parallel solves on clustered instances",
			XLabel: "communities",
			Run:    runDecompSweep,
		},
	}
}

// Lookup resolves an experiment id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (valid: %v)", id, ids())
}

func ids() []string {
	out := make([]string, 0)
	for _, e := range Registry() {
		out = append(out, e.ID)
	}
	return out
}

// scaleFlags say which cardinalities Options.Scale applies to.
type scaleFlags int

const (
	scaleEvents scaleFlags = 1 << iota
	scaleUsers
)

// sweepSynthetic runs the standard four-algorithm comparison over one swept
// parameter of the TABLE III generator.
func sweepSynthetic(id string, algos []string, xs []float64,
	mutate func(*dataset.SyntheticConfig, float64), opt Options, flags scaleFlags) ([]Point, error) {
	opt = opt.withDefaults()
	var points []Point
	for xi, x := range xs {
		perAlgo := make(map[string][]Point, len(algos))
		for r := 0; r < opt.Reps; r++ {
			cfg := dataset.DefaultSynthetic()
			mutate(&cfg, x)
			if flags&scaleEvents != 0 {
				cfg.NumEvents = opt.scaleCard(cfg.NumEvents, 2)
			}
			if flags&scaleUsers != 0 {
				cfg.NumUsers = opt.scaleCard(cfg.NumUsers, 2)
			}
			cfg.Seed = opt.Seed + int64(xi)*1009 + int64(r)*31
			in, err := cfg.Generate()
			if err != nil {
				return nil, fmt.Errorf("bench: %s x=%v: %w", id, x, err)
			}
			for _, algo := range algos {
				m, sec, bytes, err := MeasureAlgo(opt, in, algo, cfg.Seed+int64(len(algo)))
				if err != nil {
					return nil, fmt.Errorf("bench: %s x=%v algo=%s: %w", id, x, algo, err)
				}
				perAlgo[algo] = append(perAlgo[algo], Point{
					Experiment: id, X: x, Algo: algo,
					MaxSum: m.MaxSum(), Seconds: sec, Bytes: bytes,
				})
			}
		}
		for _, algo := range algos {
			points = append(points, average(perAlgo[algo]))
		}
	}
	return points, nil
}

// runFig4Real sweeps the conflict density on the simulated Auckland dataset
// with Uniform capacities, as in the last column of Fig. 4.
func runFig4Real(opt Options) ([]Point, error) {
	opt = opt.withDefaults()
	var points []Point
	for xi, ratio := range []float64{0, 0.25, 0.5, 0.75, 1} {
		perAlgo := make(map[string][]Point)
		for r := 0; r < opt.Reps; r++ {
			cfg := dataset.MeetupConfig{
				City:    "auckland",
				CapDist: dataset.Uniform,
				CFRatio: ratio,
				Seed:    opt.Seed + int64(xi)*1013 + int64(r)*37,
			}
			in, err := cfg.Generate()
			if err != nil {
				return nil, err
			}
			// Scale shrinks the city via truncation when requested.
			in = truncate(in, opt)
			for _, algo := range compareAlgos {
				m, sec, bytes, err := MeasureAlgo(opt, in, algo, cfg.Seed+int64(len(algo)))
				if err != nil {
					return nil, fmt.Errorf("bench: fig4real ratio=%v algo=%s: %w", ratio, algo, err)
				}
				perAlgo[algo] = append(perAlgo[algo], Point{
					Experiment: "fig4real", X: ratio, Algo: algo,
					MaxSum: m.MaxSum(), Seconds: sec, Bytes: bytes,
				})
			}
		}
		for _, algo := range compareAlgos {
			points = append(points, average(perAlgo[algo]))
		}
	}
	return points, nil
}

// truncate shrinks an instance to Scale of its events and users (used to
// run the fixed-size city datasets at reduced scale). The conflict graph is
// re-sampled over the surviving events at the original density.
func truncate(in *core.Instance, opt Options) *core.Instance {
	if opt.Scale >= 1 {
		return in
	}
	nv := opt.scaleCard(in.NumEvents(), 2)
	nu := opt.scaleCard(in.NumUsers(), 2)
	events := in.Events[:nv]
	users := in.Users[:nu]
	var pairs [][2]int
	if in.Conflicts != nil {
		for _, p := range in.Conflicts.Pairs() {
			if p[0] < nv && p[1] < nv {
				pairs = append(pairs, p)
			}
		}
	}
	conflicts := conflict.FromPairs(nv, pairs)
	if in.SimFunc != nil {
		// Rebuild through the constructor so the shrunk instance gets fresh
		// similarity kernels over the surviving vectors (a field copy would
		// carry the full-size kernels, which consumers would have to reject
		// as stale and fall back to the slow path).
		if rebuilt, err := core.NewInstance(events, users, conflicts, in.SimFunc); err == nil {
			return rebuilt
		}
	}
	shrunk := *in
	shrunk.Events = events
	shrunk.Users = users
	shrunk.Conflicts = conflicts
	return &shrunk
}
