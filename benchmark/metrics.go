package main

import (
	"fmt"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are
// what BENCHMARK.json declares; a test holds the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics, printed with -trace 0 for every
// workload. Timings are taken to the reference host (calib.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},          // exec of the server until it can take the run's traffic; median of setupRuns
	{"latency_p50_ms", "ms"},  // every measured request but GET /stats (a rare, separate read: server.stats_p50_ms)
	{"latency_tail_ms", "ms"}, // same population, percentile by tailPerMille
	{"solve_p50_ms", "ms"},    // requests that run a solver: fresh solves, rebalances
	{"solve_tail_ms", "ms"},   // same population, percentile by tailPerMille
	{"throughput_rps", "1/s"}, // completed requests per second over the middle windows
	{"cpu_ms_per_req", "ms"},  // server user+sys CPU per request over the middle windows
	{"peak_rss_mb", "MB"},     // server VmHWM at the end of the run
	{"maxsum_mean", "sim"},    // mean MaxSum per solve answer; per lane's final arrangement on instance-deltas
}

// selfTimeLayers are the layers the traced replay attributes self time
// to, in ms per replayed request (see layerOf).
var selfTimeLayers = []string{
	"encoding.decode_ms", "encoding.encode_ms", "solvecache.key_ms",
	"core.solve_ms", "core.greedy.init_ms", "core.greedy.scan_ms",
	"mincostflow.relax_ms", "mincostflow.resolve_ms",
	"core.bound_ms", "core.validate_ms", "core.arranger_ms",
	"decomp.decompose_ms", "decomp.solve_ms", "decomp.rebalance_ms",
	"partition.split_ms", "partition.shard_ms", "partition.repair_ms",
	"store.append_ms", "store.snapshot_ms",
}

// perLayer are the per-layer metrics, printed with -trace 1: the self
// times above, then the replay's own cost, then counter deltas over the
// measured phase of the HTTP run, each ratio next to its base.
var perLayer = append(layerDefs(), []metricDef{
	{"replay.requests", "count"},
	{"replay.wall_ms_per_req", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"requests.measured", "count"},
	{"solvecache.lookups", "count"},
	{"solvecache.hit_ratio", "ratio"},
	{"solvecache.evictions", "count"},
	{"greedy.pops_per_req", "count"},
	{"sim.kernel_pairs_per_req", "count"},
	{"mincostflow.runs", "count"},
	{"mincostflow.runs_per_req", "count"},
	{"mincostflow.augmentations_per_run", "count"},
	{"mincostflow.warm_attempts", "count"},
	{"mincostflow.warm_hit_ratio", "ratio"},
	{"mincostflow.cold_fallbacks", "count"},
	{"decomp.components_per_req", "count"},
	{"rebalance.runs", "count"},
	{"rebalance.dirty_components_mean", "count"},
	{"partition.runs", "count"},
	{"partition.shards_per_req", "count"},
	{"partition.fallback_ratio", "ratio"},
	{"store.snapshots", "count"},
	{"store.replay_s", "s"},
	{"admission.queue_wait_p99_ms", "ms"},
	{"admission.shed", "count"},
	{"go.alloc_mb_per_req", "MB"},
	{"go.gc_cycles_per_100req", "count"},
	{"go.gc_pause_ms_per_req", "ms"},
	{"server.stats_p50_ms", "ms"},
	{"host.calibration_ms", "ms"},
}...)

func layerDefs() []metricDef {
	out := make([]metricDef, len(selfTimeLayers))
	for i, l := range selfTimeLayers {
		out[i] = metricDef{l, "ms"}
	}
	return out
}

// value is one measured metric; samples is the population size behind it
// (0 for single readings) and note says which percentile a tail is.
type value struct {
	v       float64
	samples int
	note    string
}

// phase is the raw material of one workload run's metrics.
type phase struct {
	setups   []time.Duration
	measured int             // measured requests
	all      []time.Duration // the latency_* population
	solver   []time.Duration // measured requests that ran a solver
	stats    []time.Duration // measured GET /stats requests
	windows  []window
	before   snapshot
	after    snapshot
	hwm      int64
	maxsums  []float64
	replayS  float64
}

// calibrationMS is the median calibration round of the measured phase.
func (p *phase) calibrationMS() float64 {
	cals := make([]float64, 0, len(p.windows)+1)
	for i, w := range p.windows {
		if i == 0 {
			cals = append(cals, float64(w.cal[0])/float64(time.Millisecond))
		}
		cals = append(cals, float64(w.cal[1])/float64(time.Millisecond))
	}
	return median(cals)
}

// endToEndValues computes the -trace 0 metrics. Every timing is taken to
// the reference host (calib.go): latencies and window rates by the
// calibration around their window, set-up times, which precede the
// measured phase, by its median calibration.
func (p *phase) endToEndValues() map[string]value {
	setupScale := float64(calReference) / float64(time.Millisecond) / p.calibrationMS()
	setups := make([]float64, len(p.setups))
	for i, d := range p.setups {
		setups[i] = d.Seconds() * setupScale
	}
	all, solver := latencyMS(p.all), latencyMS(p.solver)
	reqs := make([]float64, len(p.windows))
	durs := make([]float64, len(p.windows))
	cpus := make([]float64, len(p.windows))
	for i, w := range p.windows {
		f := w.scale()
		reqs[i], durs[i], cpus[i] = float64(w.reqs), w.dur.Seconds()*f, f*float64(w.cpu)/float64(time.Millisecond)
	}
	m := map[string]value{
		"setup_s":        {v: median(setups), samples: len(setups)},
		"throughput_rps": {v: midRatio(reqs, durs), samples: len(reqs), note: "windows"},
		"cpu_ms_per_req": {v: midRatio(cpus, reqs), samples: len(reqs), note: "windows"},
		"peak_rss_mb":    {v: float64(p.hwm) / (1 << 20)},
		"maxsum_mean":    {v: mean(p.maxsums), samples: len(p.maxsums)},
	}
	for _, pop := range []struct {
		prefix string
		xs     []float64
	}{{"latency", all}, {"solve", solver}} {
		q := tailPerMille(len(pop.xs))
		m[pop.prefix+"_p50_ms"] = value{v: quantile(pop.xs, 0.5), samples: len(pop.xs)}
		m[pop.prefix+"_tail_ms"] = value{v: quantile(pop.xs, float64(q)/1000), samples: len(pop.xs),
			note: fmt.Sprintf("p%g", float64(q)/10)}
	}
	return m
}

// counterValues computes the counter-based per-layer metrics from the
// snapshots around the measured phase.
func (p *phase) counterValues() map[string]value {
	b, a := p.before, p.after
	reqs := float64(p.measured)
	hits := delta(b, a, "geacc_solve_cache_hits_total")
	lookups := hits + delta(b, a, "geacc_solve_cache_misses_total")
	runs := delta(b, a, "geacc_mcflow_runs_total")
	warm := delta(b, a, "geacc_mcflow_warm_attempts_total")
	rebal := delta(b, a, "geacc_rebalance_dirty_components_count")
	parts := delta(b, a, "geacc_partition_runs_total")
	stats := latencyMS(p.stats)
	return map[string]value{
		"requests.measured":                 {v: reqs},
		"solvecache.lookups":                {v: lookups},
		"solvecache.hit_ratio":              {v: ratio(hits, lookups)},
		"solvecache.evictions":              {v: delta(b, a, "geacc_solve_cache_evictions_total")},
		"greedy.pops_per_req":               {v: ratio(delta(b, a, "geacc_greedy_pops_total"), reqs)},
		"sim.kernel_pairs_per_req":          {v: ratio(delta(b, a, "geacc_sim_kernel_pairs_total"), reqs)},
		"mincostflow.runs":                  {v: runs},
		"mincostflow.runs_per_req":          {v: ratio(runs, reqs)},
		"mincostflow.augmentations_per_run": {v: ratio(delta(b, a, "geacc_mcflow_augmentations_total"), runs)},
		"mincostflow.warm_attempts":         {v: warm},
		"mincostflow.warm_hit_ratio":        {v: ratio(delta(b, a, "geacc_mcflow_warm_hits_total"), warm)},
		"mincostflow.cold_fallbacks":        {v: delta(b, a, "geacc_mcflow_warm_cold_fallbacks_total")},
		"decomp.components_per_req":         {v: ratio(delta(b, a, "geacc_decomp_components_total"), reqs)},
		"rebalance.runs":                    {v: rebal},
		"rebalance.dirty_components_mean":   {v: ratio(delta(b, a, "geacc_rebalance_dirty_components_sum"), rebal)},
		"partition.runs":                    {v: parts},
		"partition.shards_per_req":          {v: ratio(delta(b, a, "geacc_partition_shards_total"), reqs)},
		"partition.fallback_ratio":          {v: ratio(delta(b, a, "geacc_partition_fallbacks_total"), parts)},
		"store.snapshots":                   {v: delta(b, a, "geacc_snapshots_total")},
		"store.replay_s":                    {v: p.replayS},
		"admission.queue_wait_p99_ms":       {v: 1000 * histQuantile(b, a, "geacc_admission_queue_wait_seconds", 0.99)},
		"admission.shed":                    {v: deltaSum(b, a, "geacc_admission_shed_total")},
		"go.alloc_mb_per_req":               {v: ratio(float64(a.memstats.TotalAlloc-b.memstats.TotalAlloc)/(1<<20), reqs)},
		"go.gc_cycles_per_100req":           {v: ratio(100*float64(a.memstats.NumGC-b.memstats.NumGC), reqs)},
		"go.gc_pause_ms_per_req":            {v: ratio(float64(a.memstats.PauseTotalNs-b.memstats.PauseTotalNs)/1e6, reqs)},
		"server.stats_p50_ms":               {v: quantile(stats, 0.5), samples: len(stats)},
		"host.calibration_ms":               {v: p.calibrationMS(), samples: len(p.windows) + 1},
	}
}

// replayValues computes the traced per-layer metrics from the two replay
// passes.
func replayValues(untraced, traced replayResult) map[string]value {
	n := float64(traced.requests)
	m := map[string]value{
		"replay.requests":        {v: n},
		"replay.wall_ms_per_req": {v: ratio(float64(untraced.wall)/float64(time.Millisecond), float64(untraced.requests)), samples: untraced.requests},
		"trace.overhead_frac":    {v: ratio(float64(traced.wall-untraced.wall), float64(untraced.wall))},
	}
	for _, l := range selfTimeLayers {
		m[l] = value{samples: traced.requests}
	}
	for layer, self := range layerTable(traced.spans) {
		m[layer] = value{v: ratio(float64(self)/float64(time.Millisecond), n), samples: traced.requests}
	}
	return m
}
