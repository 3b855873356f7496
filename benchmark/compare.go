package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// side is one side of a comparison: per (workload, metric) the values of
// its runs, and per (workload, seed) the output digests seen.
type side struct {
	values  map[[2]string][]float64
	digests map[[2]string]map[string]bool
}

func loadSide(paths []string) (side, error) {
	s := side{values: map[[2]string][]float64{}, digests: map[[2]string]map[string]bool{}}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return s, err
		}
		var rs []fileResult
		if err := json.Unmarshal(b, &rs); err != nil {
			return s, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range rs {
			dk := [2]string{r.Workload, fmt.Sprint(r.Seed)}
			if s.digests[dk] == nil {
				s.digests[dk] = map[string]bool{}
			}
			s.digests[dk][r.Digest] = true
			for name, v := range r.Metrics {
				k := [2]string{r.Workload, name}
				s.values[k] = append(s.values[k], v.Value)
			}
		}
	}
	return s, nil
}

// verdict compares the two sides of one metric: unresolved when either
// side's spread (interquartile range over median) exceeds the bound, agree
// when the medians are within the bound, otherwise better or worse.
func verdict(a, b []float64, better string, bound float64) (rel float64, v string) {
	qa, qb := quartiles(a), quartiles(b)
	if qa[1] != 0 {
		rel = (qb[1] - qa[1]) / math.Abs(qa[1])
	} else if qb[1] != 0 {
		rel = math.Inf(1)
	}
	spread := 0.0
	for _, q := range [][3]float64{qa, qb} {
		if q[1] != 0 {
			spread = math.Max(spread, (q[2]-q[0])/math.Abs(q[1]))
		}
	}
	worse := rel
	if better == "higher" {
		worse = -rel
	}
	switch {
	case bound < 0:
		return rel, "info"
	case spread > bound:
		return rel, "unresolved"
	case math.Abs(rel) <= bound:
		return rel, "agree"
	case worse > 0:
		return rel, "worse"
	}
	return rel, "better"
}

// runCompare prints, per (workload, metric), each side's median and
// quartiles and whether the sides agree within the metric's bound from
// BENCHMARK.json. Metrics without a bound are listed for information. It
// exits 1 when an end-to-end metric does not agree or the digests differ.
func runCompare(benchPath string, pathsA, pathsB []string, stdout, stderr io.Writer) int {
	var bf benchmarkFile
	if b, err := os.ReadFile(benchPath); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	} else if err := json.Unmarshal(b, &bf); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", benchPath, err)
		return 2
	}
	a, err := loadSide(pathsA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := loadSide(pathsB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return printComparison(bf, a, b, stdout)
}

func printComparison(bf benchmarkFile, a, b side, w io.Writer) int {
	type rule struct {
		better string
		bound  float64
	}
	rules := map[string]rule{}
	for _, m := range bf.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound}
	}
	var keys [][2]string
	for k := range a.values {
		if _, ok := b.values[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		_, ei := rules[keys[i][1]]
		_, ej := rules[keys[j][1]]
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		if ei != ej {
			return ei
		}
		return keys[i][1] < keys[j][1]
	})
	code := 0
	fmt.Fprintf(w, "%-18s %-34s %30s %30s %9s %7s  %s\n", "workload", "metric",
		"A median [q1, q3]", "B median [q1, q3]", "B vs A", "bound", "verdict")
	for _, k := range keys {
		r, ok := rules[k[1]]
		if !ok {
			r = rule{"lower", -1}
		}
		rel, v := verdict(a.values[k], b.values[k], r.better, r.bound)
		if ok && v != "agree" && v != "better" {
			code = 1
		}
		qa, qb := quartiles(a.values[k]), quartiles(b.values[k])
		bound := "-"
		if ok {
			bound = fmt.Sprintf("%.3g", r.bound)
		}
		fmt.Fprintf(w, "%-18s %-34s %30s %30s %+8.2f%% %7s  %s\n", k[0], k[1],
			fmt.Sprintf("%.4g [%.4g, %.4g]", qa[1], qa[0], qa[2]),
			fmt.Sprintf("%.4g [%.4g, %.4g]", qb[1], qb[0], qb[2]), 100*rel, bound, v)
	}
	var runs [][2]string
	for k := range a.digests {
		runs = append(runs, k)
	}
	sort.Slice(runs, func(i, j int) bool {
		return runs[i][0] < runs[j][0] || runs[i][0] == runs[j][0] && runs[i][1] < runs[j][1]
	})
	for _, k := range runs {
		all := map[string]bool{}
		for d := range a.digests[k] {
			all[d] = true
		}
		for d := range b.digests[k] {
			all[d] = true
		}
		if len(all) == 1 {
			fmt.Fprintf(w, "%-18s seed %-6s outputs identical on every run\n", k[0], k[1])
		} else {
			fmt.Fprintf(w, "%-18s seed %-6s outputs differ: %d distinct digests\n", k[0], k[1], len(all))
			code = 1
		}
	}
	return code
}
