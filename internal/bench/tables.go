package bench

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
)

// runTable1 replays the paper's TABLE I walkthroughs: all algorithms on the
// toy instance. The expected MaxSums are 4.39 (exact), 4.28 (greedy), 4.13
// (min-cost flow); the harness errors if they drift, making the experiment
// double as an end-to-end acceptance check.
func runTable1(opt Options) ([]Point, error) {
	in, err := core.NewMatrixInstance(
		[]core.Event{{Cap: 5}, {Cap: 3}, {Cap: 2}},
		[]core.User{{Cap: 3}, {Cap: 1}, {Cap: 1}, {Cap: 2}, {Cap: 3}},
		conflict.FromPairs(3, [][2]int{{0, 2}}),
		[][]float64{
			{0.93, 0.43, 0.84, 0.64, 0.65},
			{0, 0.35, 0.19, 0.21, 0.4},
			{0.86, 0.57, 0.78, 0.79, 0.68},
		},
	)
	if err != nil {
		return nil, err
	}
	expect := map[string]float64{"exact": 4.39, "greedy": 4.28, "mincostflow": 4.13}
	var points []Point
	for _, algo := range []string{"exact", "greedy", "mincostflow", "random-v", "random-u"} {
		m, sec, bytes, err := MeasureAlgo(Options{}, in, algo, opt.Seed)
		if err != nil {
			return nil, err
		}
		if want, fixed := expect[algo]; fixed && abs(m.MaxSum()-want) > 1e-9 {
			return nil, fmt.Errorf("bench: table1 %s MaxSum %v, paper says %v", algo, m.MaxSum(), want)
		}
		points = append(points, Point{
			Experiment: "table1", X: 1, Algo: algo,
			MaxSum: m.MaxSum(), Seconds: sec, Bytes: bytes,
		})
	}
	return points, nil
}

// runTable2 generates the three simulated Meetup cities and reports their
// statistics (the content of TABLE II) plus a greedy solve of each.
func runTable2(opt Options) ([]Point, error) {
	opt = opt.withDefaults()
	var points []Point
	for i, city := range dataset.Cities {
		cfg := dataset.MeetupConfig{
			City:    city.Name,
			CapDist: dataset.Uniform,
			CFRatio: 0.25,
			Seed:    opt.Seed,
		}
		in, err := cfg.Generate()
		if err != nil {
			return nil, err
		}
		in = truncate(in, opt)
		start := time.Now()
		m := core.Greedy(in)
		sec := time.Since(start).Seconds()
		if err := core.Validate(in, m); err != nil {
			return nil, err
		}
		points = append(points, Point{
			Experiment: "table2", X: float64(i), Algo: city.Name,
			MaxSum: m.MaxSum(), Seconds: sec,
			Extra: map[string]float64{
				"events":    float64(in.NumEvents()),
				"users":     float64(in.NumUsers()),
				"conflicts": float64(in.Conflicts.Edges()),
			},
		})
	}
	return points, nil
}

// runAblationIndex compares Greedy-GEACC under every NN index on the
// default synthetic instance — the σ(S) choice the paper leaves open.
func runAblationIndex(opt Options) ([]Point, error) {
	opt = opt.withDefaults()
	cfg := dataset.DefaultSynthetic()
	cfg.NumEvents = opt.scaleCard(cfg.NumEvents, 2)
	cfg.NumUsers = opt.scaleCard(cfg.NumUsers, 2)
	cfg.Seed = opt.Seed
	in, err := cfg.Generate()
	if err != nil {
		return nil, err
	}
	// Every index is exact, so all produce the same matching; only the
	// time and memory differ.
	kinds := []core.IndexKind{
		core.IndexChunked, core.IndexSorted, core.IndexIDistance, core.IndexVAFile,
	}
	var points []Point
	for _, kind := range kinds {
		kind := kind
		solve := func(in *core.Instance, _ *rand.Rand) *core.Matching {
			return core.GreedyOpts(in, core.GreedyOptions{Index: kind})
		}
		m, sec, bytes, err := Measure(in, solve, opt.Seed)
		if err != nil {
			return nil, err
		}
		points = append(points, Point{
			Experiment: "ablation-index", X: 1, Algo: kind.String(),
			MaxSum: m.MaxSum(), Seconds: sec, Bytes: bytes,
		})
	}
	return points, nil
}

// runAblationResolution compares MinCostFlow-GEACC's greedy conflict
// resolution (the paper's Algorithm 1) against the exact per-user MWIS
// extension, across conflict densities.
func runAblationResolution(opt Options) ([]Point, error) {
	opt = opt.withDefaults()
	var points []Point
	for xi, ratio := range []float64{0.25, 0.5, 0.75, 1} {
		cfg := dataset.DefaultSynthetic()
		cfg.NumEvents = opt.scaleCard(cfg.NumEvents, 2)
		cfg.NumUsers = opt.scaleCard(cfg.NumUsers, 2)
		cfg.CFRatio = ratio
		cfg.Seed = opt.Seed + int64(xi)*1051
		in, err := cfg.Generate()
		if err != nil {
			return nil, err
		}
		for _, mode := range []struct {
			name string
			opt  core.FlowOptions
		}{
			{"greedy-resolution", core.FlowOptions{}},
			{"mwis-resolution", core.FlowOptions{ExactResolution: true}},
		} {
			start := time.Now()
			res := core.MinCostFlowOpts(in, mode.opt)
			sec := time.Since(start).Seconds()
			if err := core.Validate(in, res.Matching); err != nil {
				return nil, err
			}
			points = append(points, Point{
				Experiment: "ablation-resolution", X: ratio, Algo: mode.name,
				MaxSum: res.Matching.MaxSum(), Seconds: sec,
				Extra: map[string]float64{"relaxed_bound": res.RelaxedMaxSum},
			})
		}
	}
	return points, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
