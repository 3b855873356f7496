package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// setupRuns is how many times each run sets the server up; setup_s is
// their median and the last set-up serves the measured phase.
const setupRuns = 9

// config is one invocation's settings.
type config struct {
	seed      int64
	seconds   int
	trace     bool
	buildDir  string
	serverBin string
	perLane   int       // when positive, overrides the per-lane request count (tests)
	log       io.Writer // progress and diagnostics
}

// outcome is one workload run: the verdict, the metrics, and the digest
// of every returned matching. layers is nil unless the run was traced.
type outcome struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	digest    string
	e2e       map[string]value
	layers    map[string]value
	msgs      []string
}

// runWorkload sets the server up setupRuns times, drives the last one with
// the workload's lanes, checks every answer, and computes the metrics.
func runWorkload(ctx context.Context, cfg config, w *workload) (*outcome, error) {
	n := cfg.perLane
	if n <= 0 {
		n = w.perLane(cfg.seconds)
	}
	fmt.Fprintf(cfg.log, "%s: generating %d×%d requests (seed %d)\n", w.name, lanes, n, cfg.seed)
	ls, err := w.streams(cfg.seed, n)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.buildDir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	tmp, err = filepath.Abs(tmp)
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(tmp, "server.log")
	chk := newChecker()
	var p phase

	// Set-up: exec → /readyz 200 → the lanes' set-up requests answered: on
	// a solve workload the first solve, on instance-deltas the lanes'
	// instances created and populated.
	var srv *serverProc
	defer func() { srv.stop() }()
	var setupResps [][]response
	for k := 0; k < setupRuns; k++ {
		dataDir := filepath.Join(tmp, fmt.Sprintf("data-%d", k))
		start := time.Now()
		s, err := startServer(ctx, cfg.serverBin, dataDir, logPath)
		if err != nil {
			return nil, err
		}
		resps, err := populate(ctx, s.base, ls)
		p.setups = append(p.setups, time.Since(start))
		if err != nil {
			s.stop()
			return nil, err
		}
		if k < setupRuns-1 {
			s.stop()
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
			continue
		}
		srv, setupResps = s, resps
	}
	dataDir := filepath.Join(tmp, fmt.Sprintf("data-%d", setupRuns-1))

	// Measured phase.
	clients := make([]*http.Client, lanes)
	for l := range clients {
		clients[l] = newLaneClient()
	}
	admin := newLaneClient()
	fmt.Fprintf(cfg.log, "%s: measuring\n", w.name)
	// Collect the generator's garbage now rather than during the phase.
	runtime.GC()
	cpu := func() time.Duration {
		c, _ := procCPU(srv.pid())
		return c
	}
	resps, windows := runLanes(ctx, clients, srv.base, ls, func() { p.before = scrape(ctx, admin, srv) }, cpu, calibrate)
	p.after = scrape(ctx, admin, srv)
	p.windows = windows
	if p.hwm, err = procHWM(srv.pid()); err != nil {
		return nil, err
	}
	for _, c := range clients {
		c.CloseIdleConnections()
	}

	// Every measured latency, taken to the reference host by the
	// calibration around its window.
	out := &outcome{workload: w.name}
	for _, lane := range ls {
		out.attempted += len(lane.setup) + len(lane.reqs)
	}
	for k, win := range windows {
		f := win.scale()
		for l, lane := range ls {
			lo, hi := laneChunk(lane, k, len(windows))
			for i := lo; i < hi; i++ {
				d := time.Duration(float64(resps[l][i].dur) * f)
				kind := lane.reqs[i].kind
				p.measured++
				switch {
				case kind == opStats:
					p.stats = append(p.stats, d)
				case kind.solver():
					p.solver = append(p.solver, d)
					fallthrough
				default:
					p.all = append(p.all, d)
				}
			}
		}
	}

	// Checks, after the clock.
	if w.solve != nil {
		for l, lane := range ls {
			p.maxsums = append(p.maxsums, checkSolveLane(chk, w.solve, lane, setupResps[l], resps[l])...)
		}
	} else {
		for l, lane := range ls {
			checkDeltaLane(chk, lane, setupResps[l], resps[l])
		}
		finals := make([][]byte, lanes)
		for l, lane := range ls {
			if finals[l], err = get(ctx, admin, srv.base+"/instances/"+lane.id); err != nil {
				chk.fail("final %s: %v", lane.id, err)
				continue
			}
			p.maxsums = append(p.maxsums, checkFinal(chk, lane, finals[l]))
		}
		// Crash and recover: the replayed instances must read back byte
		// for byte.
		srv.stop()
		start := time.Now()
		if srv, err = startServer(ctx, cfg.serverBin, dataDir, logPath); err != nil {
			return nil, err
		}
		p.replayS = time.Since(start).Seconds()
		for l, lane := range ls {
			got, err := get(ctx, admin, srv.base+"/instances/"+lane.id)
			if err != nil || !bytes.Equal(got, finals[l]) {
				chk.fail("kill -9 replay of %s: not byte-identical (%v)", lane.id, err)
			}
		}
	}
	admin.CloseIdleConnections()
	srv.stop()

	out.failed = chk.failed
	out.correct = chk.failed == 0
	out.digest = chk.sum()
	out.msgs = chk.msgs
	out.e2e = p.endToEndValues()
	if cfg.trace {
		out.layers = p.counterValues()
		traced, err := traceReplay(ctx, cfg, w, ls, tmp)
		if err != nil {
			return nil, err
		}
		for k, v := range traced {
			out.layers[k] = v
		}
	}
	if out.correct {
		if err := os.RemoveAll(tmp); err != nil {
			return nil, err
		}
	} else {
		fmt.Fprintf(cfg.log, "%s: server log and data kept in %s\n", w.name, tmp)
	}
	return out, nil
}

// populate runs the lanes' set-up requests (instance-deltas) in parallel,
// one connection per lane.
func populate(ctx context.Context, base string, ls []laneStream) ([][]response, error) {
	out := make([][]response, len(ls))
	errs := make([]error, len(ls))
	var wg sync.WaitGroup
	for l := range ls {
		if len(ls[l].setup) == 0 {
			continue
		}
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			c := newLaneClient()
			defer c.CloseIdleConnections()
			out[l], errs[l] = sendAll(ctx, c, base, ls[l].setup)
		}(l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceReplay runs the in-process replay untraced and traced, writes the
// Chrome trace and the per-layer table, and returns the traced metrics.
func traceReplay(ctx context.Context, cfg config, w *workload, ls []laneStream, tmp string) (map[string]value, error) {
	fmt.Fprintf(cfg.log, "%s: replaying in-process\n", w.name)
	untraced, err := replay(ctx, w, ls, filepath.Join(tmp, "replay-untraced"), false)
	if err != nil {
		return nil, err
	}
	traced, err := replay(ctx, w, ls, filepath.Join(tmp, "replay-traced"), true)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, cfg.seed))
	if err := writeChromeTrace(base+".trace.json", traced.spans); err != nil {
		return nil, err
	}
	m := replayValues(untraced, traced)
	var table bytes.Buffer
	fmt.Fprintf(&table, "%-24s %12s  (self time per request over %d replayed requests)\n", "layer", "ms/req", traced.requests)
	for _, l := range selfTimeLayers {
		fmt.Fprintf(&table, "%-24s %12.4f\n", l, m[l].v)
	}
	fmt.Fprintf(&table, "%-24s %12.4f  (untraced wall per request)\n", "replay.wall_ms_per_req", m["replay.wall_ms_per_req"].v)
	if err := os.WriteFile(base+".layers.txt", table.Bytes(), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "%s: trace %s.trace.json, table %s.layers.txt\n", w.name, base, base)
	return m, nil
}
