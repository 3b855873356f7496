package server

import (
	"net/http"
	"runtime"
	"time"

	"github.com/ebsnlab/geacc/internal/buildinfo"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/solvecache"
)

// httpWindow returns the rolling SLO window for one bounded endpoint label
// (a metricPath output), minting it on first use.
func (s *service) httpWindow(path string) *obs.Window {
	s.winMu.Lock()
	defer s.winMu.Unlock()
	w, ok := s.httpWindows[path]
	if !ok {
		w = obs.NewWindow(0, 0, 0)
		s.httpWindows[path] = w
	}
	return w
}

// solveWindow returns the rolling SLO window for one solver algorithm
// (a registry name — callers validate before observing), minting it on
// first use.
func (s *service) solveWindow(algo string) *obs.Window {
	s.winMu.Lock()
	defer s.winMu.Unlock()
	w, ok := s.solveWindows[algo]
	if !ok {
		w = obs.NewWindow(0, 0, 0)
		s.solveWindows[algo] = w
	}
	return w
}

// windowsSnapshot returns every live window keyed by its full Prometheus
// series name, the shape obs.WritePrometheusWindows renders.
func (s *service) windowsSnapshot() map[string]*obs.Window {
	s.winMu.Lock()
	defer s.winMu.Unlock()
	out := make(map[string]*obs.Window, len(s.httpWindows)+len(s.solveWindows))
	for p, w := range s.httpWindows {
		out[obs.Label("geacc_http_window_seconds", "path", p)] = w
	}
	for a, w := range s.solveWindows {
		out[obs.Label("geacc_solve_window_seconds", "algo", a)] = w
	}
	return out
}

// windowStats expands one window map into per-key, per-horizon summaries
// over the standard 1m/5m/15m horizons.
func windowStats(m map[string]*obs.Window) map[string]map[string]obs.WindowStats {
	out := make(map[string]map[string]obs.WindowStats, len(m))
	for key, w := range m {
		horizons := make(map[string]obs.WindowStats, len(obs.StandardWindows))
		for _, sw := range obs.StandardWindows {
			st := w.Stats(sw.Dur)
			st.Window = sw.Name
			horizons[sw.Name] = st
		}
		out[key] = horizons
	}
	return out
}

// StatuszResponse is the GET /statusz payload: one JSON page answering
// "what is this process and how is it doing right now" — build identity,
// uptime, readiness, instance count, runtime memory, and the rolling
// latency/error windows per endpoint and per solver.
type StatuszResponse struct {
	Service         string         `json:"service"`
	Build           buildinfo.Info `json:"build"`
	StartedAt       time.Time      `json:"started_at"`
	UptimeSeconds   float64        `json:"uptime_seconds"`
	Ready           bool           `json:"ready"`
	InstancesActive int64          `json:"instances_active"`
	Goroutines      int            `json:"goroutines"`
	HeapAllocBytes  uint64         `json:"heap_alloc_bytes"`
	HeapSysBytes    uint64         `json:"heap_sys_bytes"`
	NumGC           uint32         `json:"num_gc"`

	// Endpoints maps bounded request paths (metricPath output), and Solvers
	// maps solver algorithm names, to their 1m/5m/15m window summaries.
	Endpoints map[string]map[string]obs.WindowStats `json:"endpoints"`
	Solvers   map[string]map[string]obs.WindowStats `json:"solvers"`

	// SolveCache is the shared /solve memo cache's hit/miss/eviction
	// counters; omitted when the service was configured with caching
	// disabled.
	SolveCache *solvecache.Stats `json:"solve_cache,omitempty"`
}

// handleStatusz answers GET /statusz.
func (s *service) handleStatusz(w http.ResponseWriter, r *http.Request) {
	s.winMu.Lock()
	httpW := make(map[string]*obs.Window, len(s.httpWindows))
	for k, v := range s.httpWindows {
		httpW[k] = v
	}
	solveW := make(map[string]*obs.Window, len(s.solveWindows))
	for k, v := range s.solveWindows {
		solveW[k] = v
	}
	s.winMu.Unlock()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mu.RLock()
	active := int64(len(s.instances))
	s.mu.RUnlock()
	var cacheStats *solvecache.Stats
	if s.solveCache != nil {
		cs := s.solveCache.Stats()
		cacheStats = &cs
	}
	writeJSON(w, r, StatuszResponse{
		Service:         "geacc-server",
		Build:           buildinfo.Get(),
		StartedAt:       buildinfo.StartTime().UTC(),
		UptimeSeconds:   buildinfo.Uptime().Seconds(),
		Ready:           s.ready.Load(),
		InstancesActive: active,
		Goroutines:      runtime.NumGoroutine(),
		HeapAllocBytes:  ms.HeapAlloc,
		HeapSysBytes:    ms.HeapSys,
		NumGC:           ms.NumGC,
		Endpoints:       windowStats(httpW),
		Solvers:         windowStats(solveW),
		SolveCache:      cacheStats,
	})
}

// readyzResponse is the GET /readyz payload: the verdict plus one line per
// check, so a failing probe names what failed.
type readyzResponse struct {
	Ready  bool              `json:"ready"`
	Checks map[string]string `json:"checks"`
}

// handleReadyz answers GET /readyz: 200 when the process can usefully take
// traffic, 503 (with Retry-After) when it cannot yet — startup replay still
// running or failed, the store no longer writable, or the handler stack
// saturated. Liveness stays on /healthz: an unready process is not a dead
// process.
func (s *service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	checks := make(map[string]string, 3)
	ready := true

	switch {
	case s.replayErr.Load() != nil:
		checks["replay"] = "failed: " + *s.replayErr.Load()
		ready = false
	case !s.ready.Load():
		checks["replay"] = "replaying"
		ready = false
	default:
		checks["replay"] = "ok"
	}

	if s.st == nil {
		checks["store"] = "ok (ephemeral)"
	} else if err := s.st.Probe(); err != nil {
		checks["store"] = "failed: " + err.Error()
		ready = false
	} else {
		checks["store"] = "ok"
	}

	// Load readiness comes from the admission controller itself — the same
	// limits that decide per-request 429s decide the probe, so the
	// load-balancer signal and the shed behavior cannot drift apart: the
	// probe fails exactly when the next solve would be shed.
	msg, ok := s.adm.loadCheck()
	checks["load"] = msg
	if !ok {
		ready = false
	}

	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSONStatus(w, r, status, readyzResponse{Ready: ready, Checks: checks})
}
