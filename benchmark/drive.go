package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// response is one answered (or failed) request, buffered for checking
// after the clock stops.
type response struct {
	status int
	body   []byte
	err    error
	dur    time.Duration
}

func (r response) ok() bool { return r.err == nil && r.status/100 == 2 }

// newLaneClient returns a client holding at most one connection, so a
// lane is exactly one connection. Proxy is nil: traffic stays on loopback.
func newLaneClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

func send(ctx context.Context, c *http.Client, base string, r request) response {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, base+r.path, body)
	if err != nil {
		return response{err: err}
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return response{err: err, dur: time.Since(start)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return response{status: resp.StatusCode, body: b, err: err, dur: time.Since(start)}
}

// sendAll sends reqs in order on one client, stopping at the first failure
// (set-up must not continue past a refused op).
func sendAll(ctx context.Context, c *http.Client, base string, reqs []request) ([]response, error) {
	out := make([]response, 0, len(reqs))
	for i, r := range reqs {
		resp := send(ctx, c, base, r)
		out = append(out, resp)
		if !resp.ok() {
			return out, fmt.Errorf("set-up request %d (%s %s): status %d: %v %s",
				i, r.method, r.path, resp.status, resp.err, bytes.TrimSpace(resp.body))
		}
	}
	return out, nil
}

// window is one round of the measured phase: each lane's next chunk of
// requests. It records how many completed, the wall time and server CPU
// time they took, and the calibration rounds timed just before and just
// after it.
type window struct {
	reqs     int
	dur, cpu time.Duration
	cal      [2]time.Duration
}

// scale takes the window's timings to the reference host (see calib.go).
func (w window) scale() float64 { return scaleTo((w.cal[0] + w.cal[1]) / 2) }

// targetWindows is how many rounds the measured phase is cut into.
const targetWindows = 20

// laneChunk is the index range [lo, hi) of lane stream s's chunk k of n.
func laneChunk(s laneStream, k, n int) (lo, hi int) {
	m := len(s.reqs) - s.warm
	return s.warm + k*m/n, s.warm + (k+1)*m/n
}

// runLanes drives the closed loop. Each lane sends its warm-up requests on
// its own connection, one request outstanding; then atStart runs (counter
// snapshots). The measured phase follows in rounds: calibrate runs while
// the server is idle, then every lane sends its next chunk and the round
// ends when all have finished, so a round's wall time and server CPU time
// (cpu) are bracketed by two calibrations. It returns every response and
// the rounds.
func runLanes(ctx context.Context, clients []*http.Client, base string, ls []laneStream,
	atStart func(), cpu, calibrate func() time.Duration) ([][]response, []window) {
	out := make([][]response, len(ls))
	rounds := targetWindows
	for l := range ls {
		out[l] = make([]response, len(ls[l].reqs))
		rounds = min(rounds, len(ls[l].reqs)-ls[l].warm)
	}
	sendRange := func(f func(l int) (lo, hi int)) {
		var wg sync.WaitGroup
		for l := range ls {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				lo, hi := f(l)
				for i := lo; i < hi; i++ {
					out[l][i] = send(ctx, clients[l], base, ls[l].reqs[i])
				}
			}(l)
		}
		wg.Wait()
	}
	sendRange(func(l int) (int, int) { return 0, ls[l].warm })
	atStart()
	windows := make([]window, rounds)
	cal := calibrate()
	for k := range windows {
		n := 0
		for _, s := range ls {
			lo, hi := laneChunk(s, k, rounds)
			n += hi - lo
		}
		c0, t0 := cpu(), time.Now()
		sendRange(func(l int) (int, int) { return laneChunk(ls[l], k, rounds) })
		dur, c := time.Since(t0), cpu()-c0
		next := calibrate()
		windows[k] = window{reqs: n, dur: dur, cpu: c, cal: [2]time.Duration{cal, next}}
		cal = next
	}
	return out, windows
}
