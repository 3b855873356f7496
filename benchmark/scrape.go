package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// snapshot is the server's counters at one instant: every series of
// /metrics and the Go memstats of /debug/vars.
type snapshot struct {
	series   map[string]float64
	memstats struct {
		TotalAlloc   uint64
		NumGC        uint32
		PauseTotalNs uint64
	}
}

// parseProm reads the Prometheus text exposition into series → value,
// keyed by the full series string (name plus rendered labels).
func parseProm(b []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// get fetches url and returns the body of a 200 answer.
func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

// scrape reads /metrics and /debug/vars. A surface the server no longer
// serves leaves its part empty (its metrics read 0) rather than failing the
// run: these feed per-layer metrics only.
func scrape(ctx context.Context, c *http.Client, s *serverProc) snapshot {
	var snap snapshot
	if b, err := get(ctx, c, s.base+"/metrics"); err == nil {
		snap.series = parseProm(b)
	}
	if b, err := get(ctx, c, s.base+"/debug/vars"); err == nil {
		var vars struct {
			Memstats json.RawMessage `json:"memstats"`
		}
		if json.Unmarshal(b, &vars) == nil && vars.Memstats != nil {
			_ = json.Unmarshal(vars.Memstats, &snap.memstats)
		}
	}
	return snap
}

// delta returns after − before for one series (0 when absent).
func delta(before, after snapshot, series string) float64 {
	return after.series[series] - before.series[series]
}

// deltaSum sums the deltas of every series of a family whose name starts
// with prefix (all label values).
func deltaSum(before, after snapshot, prefix string) float64 {
	var s float64
	for k, v := range after.series {
		if strings.HasPrefix(k, prefix) {
			s += v - before.series[k]
		}
	}
	return s
}

// histQuantile estimates quantile q of a histogram family's observations
// between the snapshots: the upper bound of the first finite bucket whose
// cumulative delta reaches q of the count, or the largest finite bound when
// the quantile lies beyond it. 0 when nothing was observed.
func histQuantile(before, after snapshot, family string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := family + `_bucket{le="`
	for k, v := range after.series {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil || math.IsInf(le, 1) {
			continue // the +Inf bucket equals _count
		}
		bs = append(bs, bucket{le, v - before.series[k]})
	}
	count := delta(before, after, family+"_count")
	if count <= 0 || len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	for _, b := range bs {
		if b.n >= q*count {
			return b.le
		}
	}
	return bs[len(bs)-1].le
}
