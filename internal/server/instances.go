package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/solvecache"
	"github.com/ebsnlab/geacc/internal/store"
)

// DefaultSolveCacheEntries bounds the shared /solve memo cache when
// Config.SolveCacheEntries is zero.
const DefaultSolveCacheEntries = 512

// instanceWarmCacheEntries bounds each instance's warm-flow cache: the
// min-cost-flow states of its most recently re-solved components.
const instanceWarmCacheEntries = 64

// DefaultSnapshotEvery is how many logged ops an instance accumulates before
// the service folds them into a fresh snapshot (geacc-server
// -snapshot-every overrides it).
const DefaultSnapshotEvery = 256

// rebalanceHistory bounds each instance's ring of recent rebalance
// outcomes (GET /instances/{id}/stats).
const rebalanceHistory = 16

// Instance-service observability; catalog in docs/OBSERVABILITY.md.
var (
	instancesActive = obs.Default().Gauge("geacc_instances_active")
	deltaSeconds    = obs.Default().Histogram("geacc_delta_seconds", obs.DefaultLatencyBuckets)
)

func deltaOps(op string) *obs.Counter {
	return obs.Default().Counter(obs.Label("geacc_delta_ops_total", "op", op))
}

// service is the long-lived arrangement registry behind /instances: named
// arrangers, each with its own lock and (when a data directory is
// configured) its own write-ahead log + snapshot pair.
type service struct {
	log           *slog.Logger
	st            *store.Store // nil: instances are ephemeral
	snapshotEvery int
	adm           *admission
	admitHold     chan struct{} // test hook; see Config.admitHold

	// solveCache memoizes stateless /solve responses by content hash; nil
	// when Config.SolveCacheEntries is negative, which also leaves every
	// instance without a warm-flow cache.
	solveCache *solvecache.Cache

	// defaults is the spec an empty /solve or rebalance query describes:
	// greedy, seed 1, the decomp.MaxExactNodes exact budget, and
	// Config.Shard as the approximate-sharding default a request can opt
	// out of (?approx_shard=0).
	defaults decomp.Spec

	// ready flips true once startup replay has finished; the instance
	// endpoints and /readyz gate on it. replayErr holds the failure message
	// when a lazy replay died (the process stays up but never goes ready).
	ready     atomic.Bool
	replayErr atomic.Pointer[string]

	mu        sync.RWMutex
	instances map[string]*instance

	// Rolling SLO windows, lazily minted per bounded label value (metricPath
	// output for HTTP, registry solver names for solves). Per-service rather
	// than per-process so tests get isolated windows.
	winMu        sync.Mutex
	httpWindows  map[string]*obs.Window
	solveWindows map[string]*obs.Window
}

// instance is one named arrangement (store.Instance: arranger, log, dirty
// marks, op counts) plus the HTTP side's state around it. All access is
// serialized under mu, so deltas to one instance are atomic while other
// instances keep solving in parallel.
type instance struct {
	mu sync.Mutex
	*store.Instance

	// rebalances is a bounded ring of recent rebalance outcomes, newest
	// last (GET /instances/{id}/stats).
	rebalances []RebalanceOutcome

	// warm keeps the last min-cost-flow state per component for
	// warm-started rebalance re-solves; nil when the service disabled
	// caching.
	warm *core.WarmCache

	// deleted is set, under mu, by DELETE /instances/{id}. A handler that
	// looked the instance up before the delete checks it once it holds mu.
	deleted bool
}

// lock takes inst.mu, or answers 404 and returns false when a DELETE
// removed inst after the handler looked it up.
func (inst *instance) lock(w http.ResponseWriter, r *http.Request) bool {
	inst.mu.Lock()
	if inst.deleted {
		inst.mu.Unlock()
		writeError(w, r, http.StatusNotFound, fmt.Errorf("server: no instance %q", inst.Meta.ID))
		return false
	}
	return true
}

// recordRebalance appends one outcome to the bounded ring; callers hold
// inst.mu.
func (inst *instance) recordRebalance(o RebalanceOutcome) {
	inst.rebalances = append(inst.rebalances, o)
	if len(inst.rebalances) > rebalanceHistory {
		inst.rebalances = inst.rebalances[len(inst.rebalances)-rebalanceHistory:]
	}
}

// newService opens (or creates) the data directory and replays every
// instance found in it — synchronously by default, in the background with
// cfg.LazyReplay (the service starts unready and flips ready when replay
// finishes; a replay failure leaves it permanently unready with the error
// surfaced on /readyz). An empty DataDir disables persistence: instances
// live and die with the process.
func newService(log *slog.Logger, cfg Config) (*service, error) {
	snapshotEvery := cfg.SnapshotEvery
	if snapshotEvery <= 0 {
		snapshotEvery = DefaultSnapshotEvery
	}
	cacheEntries := cfg.SolveCacheEntries
	if cacheEntries == 0 {
		cacheEntries = DefaultSolveCacheEntries
	}
	s := &service{
		log:           log,
		snapshotEvery: snapshotEvery,
		adm:           newAdmission(cfg.MaxInflight, cfg.QueueDepth, cfg.QueueTimeout),
		admitHold:     cfg.admitHold,
		solveCache:    solvecache.New(cacheEntries), // nil when negative
		defaults:      decomp.DefaultSpec(),
		instances:     make(map[string]*instance),
		httpWindows:   make(map[string]*obs.Window),
		solveWindows:  make(map[string]*obs.Window),
	}
	s.defaults.Shard = cfg.Shard
	s.defaults.NodeLimit = decomp.MaxExactNodes
	if cfg.DataDir == "" {
		s.ready.Store(true)
		return s, nil
	}
	st, err := store.Open(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	s.st = st
	ids, err := st.List()
	if err != nil {
		return nil, err
	}
	if !cfg.LazyReplay {
		if err := s.replayAll(ids, nil); err != nil {
			return nil, err
		}
		s.ready.Store(true)
		return s, nil
	}
	go func() {
		if err := s.replayAll(ids, cfg.replayHold); err != nil {
			msg := err.Error()
			s.replayErr.Store(&msg)
			s.log.Error("startup replay failed; instance endpoints stay unavailable", "err", err)
			return
		}
		s.ready.Store(true)
	}()
	return s, nil
}

// replayAll loads every listed instance into the registry. hold, when
// non-nil, delays the start until it is closed (test hook).
func (s *service) replayAll(ids []string, hold chan struct{}) error {
	if hold != nil {
		<-hold
	}
	for _, id := range ids {
		start := time.Now()
		stInst, err := s.st.Load(context.Background(), id)
		if err != nil {
			return fmt.Errorf("server: replaying instance %q: %w", id, err)
		}
		inst := s.newInstance(stInst)
		s.mu.Lock()
		s.instances[id] = inst
		s.mu.Unlock()
		instancesActive.Add(1)
		s.log.Info("instance replayed",
			"id", id, "seq", stInst.Log.Seq(), "snapshot_seq", stInst.Log.SnapshotSeq(),
			"replayed_ops", stInst.Log.OpsSinceSnapshot(),
			"events", stInst.Arr.NumEvents(), "users", stInst.Arr.NumUsers(),
			"seconds", time.Since(start).Seconds())
	}
	return nil
}

// newInstance wraps a fresh or replayed instance with its warm-flow cache;
// a replayed instance's cache simply starts cold (replay never runs a
// solver, so there is nothing to invalidate).
func (s *service) newInstance(st *store.Instance) *instance {
	inst := &instance{Instance: st}
	if s.solveCache != nil {
		inst.warm = core.NewWarmCache(instanceWarmCacheEntries)
	}
	return inst
}

// get returns the named instance or writes a 404.
func (s *service) get(w http.ResponseWriter, r *http.Request, id string) (*instance, bool) {
	s.mu.RLock()
	inst, ok := s.instances[id]
	s.mu.RUnlock()
	if !ok {
		writeError(w, r, http.StatusNotFound, fmt.Errorf("server: no instance %q", id))
	}
	return inst, ok
}

// gateReady refuses instance traffic with 503 + Retry-After while startup
// replay is still running (the registry is incomplete: a delta accepted now
// could collide with, or shadow, an instance the replay is about to load)
// or after it failed.
func (s *service) gateReady(w http.ResponseWriter, r *http.Request) bool {
	if s.ready.Load() {
		return true
	}
	w.Header().Set("Retry-After", "1")
	if msg := s.replayErr.Load(); msg != nil {
		writeError(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("server: startup replay failed: %s", *msg))
		return false
	}
	writeError(w, r, http.StatusServiceUnavailable,
		errors.New("server: replaying persisted instances; retry shortly"))
	return false
}

// CreateInstanceRequest is the POST /instances body: the instance's name and
// its similarity definition, fixed for the instance's lifetime.
type CreateInstanceRequest struct {
	ID   string           `json:"id"`
	Sim  encoding.SimKind `json:"sim"`
	Dim  int              `json:"dim,omitempty"`
	MaxT float64          `json:"max_t,omitempty"`
}

// InstanceSummary is the per-instance view in GET /instances and the header
// of GET /instances/{id}.
type InstanceSummary struct {
	ID          string           `json:"id"`
	Sim         encoding.SimKind `json:"sim"`
	Dim         int              `json:"dim,omitempty"`
	MaxT        float64          `json:"max_t,omitempty"`
	Events      int              `json:"events"`
	Users       int              `json:"users"`
	Pairs       int              `json:"pairs"`
	MaxSum      float64          `json:"max_sum"`
	Seq         int64            `json:"seq"`
	DirtyEvents []int            `json:"dirty_events"`
	DirtyUsers  []int            `json:"dirty_users"`
}

// InstanceStatus is the GET /instances/{id} payload: the summary plus the
// full current matching in arrival order. appendInstanceStatus writes its
// bytes.
type InstanceStatus struct {
	InstanceSummary
	Matching encoding.MatchingJSON `json:"matching"`
}

// summaryLocked builds the instance's summary; callers hold inst.mu.
func (inst *instance) summaryLocked() InstanceSummary {
	var seq int64
	if inst.Log != nil {
		seq = inst.Log.Seq()
	}
	dirtyE, dirtyU := inst.Dirty()
	return InstanceSummary{
		ID:          inst.Meta.ID,
		Sim:         inst.Meta.Sim,
		Dim:         inst.Meta.Dim,
		MaxT:        inst.Meta.MaxT,
		Events:      inst.Arr.NumEvents(),
		Users:       inst.Arr.NumUsers(),
		Pairs:       inst.Arr.NumPairs(),
		MaxSum:      inst.Arr.MaxSum(),
		Seq:         seq,
		DirtyEvents: dirtyE,
		DirtyUsers:  dirtyU,
	}
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("server: %w", err))
		return false
	}
	return true
}

// handleCreateInstance registers a new named instance: POST /instances.
func (s *service) handleCreateInstance(w http.ResponseWriter, r *http.Request) {
	if !s.gateReady(w, r) {
		return
	}
	var req CreateInstanceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	meta := store.Meta{ID: req.ID, Sim: req.Sim, Dim: req.Dim, MaxT: req.MaxT}
	if err := meta.Validate(); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	simFunc, err := meta.SimInfo().Func()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.instances[meta.ID]; ok {
		writeError(w, r, http.StatusConflict, fmt.Errorf("server: instance %q already exists", meta.ID))
		return
	}
	var wal *store.Log
	if s.st != nil {
		wal, err = s.st.Create(meta)
		if err != nil {
			writeError(w, r, http.StatusConflict, err)
			return
		}
		meta = wal.Meta()
	}
	arr, err := core.NewArranger(simFunc)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	inst := s.newInstance(store.NewInstance(meta, arr, wal))
	s.instances[meta.ID] = inst
	instancesActive.Add(1)
	requestLogger(r).Info("instance created", "id", meta.ID, "sim", meta.Sim)
	inst.mu.Lock()
	defer inst.mu.Unlock()
	writeJSONStatus(w, r, http.StatusCreated, inst.summaryLocked())
}

// handleListInstances answers GET /instances with every instance's summary,
// sorted by id.
func (s *service) handleListInstances(w http.ResponseWriter, r *http.Request) {
	if !s.gateReady(w, r) {
		return
	}
	s.mu.RLock()
	insts := make([]*instance, 0, len(s.instances))
	for _, inst := range s.instances {
		insts = append(insts, inst)
	}
	s.mu.RUnlock()
	out := make([]InstanceSummary, 0, len(insts))
	for _, inst := range insts {
		inst.mu.Lock()
		out = append(out, inst.summaryLocked())
		inst.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, r, map[string]any{"instances": out})
}

// handleGetInstance answers GET /instances/{id} with the full status.
func (s *service) handleGetInstance(w http.ResponseWriter, r *http.Request) {
	if !s.gateReady(w, r) {
		return
	}
	inst, ok := s.get(w, r, r.PathValue("id"))
	if !ok || !inst.lock(w, r) {
		return
	}
	defer inst.mu.Unlock()
	// Pairs are listed in the matching's insertion order (not sorted), so
	// the response — float bits of max_sum included — is reproducible
	// across a crash/replay.
	writeResponse(w, r, http.StatusOK, func(b []byte) ([]byte, error) {
		return appendInstanceStatus(b, inst.summaryLocked(), inst.Arr.Matching())
	})
}

// handleDeleteInstance removes an instance and, when persistent, its files:
// DELETE /instances/{id}.
func (s *service) handleDeleteInstance(w http.ResponseWriter, r *http.Request) {
	if !s.gateReady(w, r) {
		return
	}
	id := r.PathValue("id")
	s.mu.Lock()
	inst, ok := s.instances[id]
	if ok {
		delete(s.instances, id)
		instancesActive.Add(-1)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, r, http.StatusNotFound, fmt.Errorf("server: no instance %q", id))
		return
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	inst.deleted = true
	if inst.Log != nil {
		_ = inst.Log.Close()
	}
	if s.st != nil {
		if err := s.st.Delete(id); err != nil {
			writeError(w, r, http.StatusInternalServerError, err)
			return
		}
	}
	requestLogger(r).Info("instance deleted", "id", id)
	writeJSON(w, r, map[string]string{"deleted": id})
}

// AddEventRequest is the POST /instances/{id}/events body.
type AddEventRequest struct {
	Attrs     []float64 `json:"attrs"`
	Cap       int       `json:"cap"`
	Conflicts []int     `json:"conflicts,omitempty"`
}

// AddUserRequest is the POST /instances/{id}/users body.
type AddUserRequest struct {
	Attrs []float64 `json:"attrs"`
	Cap   int       `json:"cap"`
}

// CancelRequest is the POST /instances/{id}/cancel body: exactly one of
// event or user names the node to remove.
type CancelRequest struct {
	Event *int `json:"event,omitempty"`
	User  *int `json:"user,omitempty"`
}

// DeltaResponse acknowledges one applied delta. ID is the index assigned to
// an arrival (absent for cancellations); Matched lists the counterparties
// the greedy placement picked up immediately.
type DeltaResponse struct {
	Op      string  `json:"op"`
	ID      *int    `json:"id,omitempty"`
	Matched []int   `json:"matched,omitempty"`
	Seq     int64   `json:"seq"`
	MaxSum  float64 `json:"max_sum"`
}

// maybeSnapshot folds the log into a fresh snapshot once enough ops have
// accumulated. Snapshot failures are logged, not fatal: the log alone still
// recovers the instance, just more slowly.
func (s *service) maybeSnapshot(ctx context.Context, inst *instance) {
	if err := inst.SnapshotIfDue(ctx, s.snapshotEvery); err != nil {
		s.log.Error("snapshot failed", "id", inst.Meta.ID, "err", err)
	}
}

// handleDelta serves one delta route: decode turns the request body into
// the op (writing a 400 when it cannot), which is then checked (400, or 404
// for an unknown cancel target), committed write-ahead and acknowledged.
func (s *service) handleDelta(decode func(http.ResponseWriter, *http.Request) (store.Op, bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.gateReady(w, r) {
			return
		}
		inst, ok := s.get(w, r, r.PathValue("id"))
		if !ok {
			return
		}
		op, ok := decode(w, r)
		if !ok {
			return
		}
		start := time.Now()
		if !inst.lock(w, r) {
			return
		}
		defer inst.mu.Unlock()
		if err := inst.Check(op); err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, store.ErrNotFound) {
				status = http.StatusNotFound
			}
			writeError(w, r, status, err)
			return
		}
		sp := obs.StartSpan(r.Context(), "instance/delta").
			Annotate("id", inst.Meta.ID).Annotate("op", op.Kind)
		defer sp.End()
		seq, err := inst.Commit(op)
		if err != nil {
			s.log.Error("delta failed", "id", inst.Meta.ID, "op", op.Kind, "err", err)
			writeError(w, r, http.StatusInternalServerError, err)
			return
		}
		deltaOps(op.Kind).Inc()
		s.maybeSnapshot(r.Context(), inst)
		deltaSeconds.Observe(time.Since(start).Seconds())
		resp := DeltaResponse{Op: op.Kind, Seq: seq, MaxSum: inst.Arr.MaxSum()}
		switch op.Kind {
		case store.OpAddEvent:
			v := inst.Arr.NumEvents() - 1
			resp.ID, resp.Matched = &v, inst.Arr.EventUsers(v)
		case store.OpAddUser:
			u := inst.Arr.NumUsers() - 1
			resp.ID, resp.Matched = &u, inst.Arr.UserEvents(u)
		}
		writeJSON(w, r, resp)
	}
}

func decodeAddEvent(w http.ResponseWriter, r *http.Request) (store.Op, bool) {
	var req AddEventRequest
	ok := decodeBody(w, r, &req)
	return store.Op{Kind: store.OpAddEvent, Attrs: req.Attrs, Cap: req.Cap, Conflicts: req.Conflicts}, ok
}

func decodeAddUser(w http.ResponseWriter, r *http.Request) (store.Op, bool) {
	var req AddUserRequest
	ok := decodeBody(w, r, &req)
	return store.Op{Kind: store.OpAddUser, Attrs: req.Attrs, Cap: req.Cap}, ok
}

func decodeCancel(w http.ResponseWriter, r *http.Request) (store.Op, bool) {
	var req CancelRequest
	switch {
	case !decodeBody(w, r, &req):
		return store.Op{}, false
	case (req.Event == nil) == (req.User == nil):
		writeError(w, r, http.StatusBadRequest, errors.New(`server: cancel wants exactly one of "event" or "user"`))
		return store.Op{}, false
	case req.Event != nil:
		return store.Op{Kind: store.OpCancelEvent, Event: req.Event}, true
	}
	return store.Op{Kind: store.OpRemoveUser, User: req.User}, true
}

// RebalanceResponse is the POST /instances/{id}/rebalance payload.
type RebalanceResponse struct {
	decomp.RebalanceResult
	Scope   string  `json:"scope"`
	Algo    string  `json:"algo"`
	Seq     int64   `json:"seq"`
	MaxSum  float64 `json:"max_sum"`
	Seconds float64 `json:"seconds"`
}

// handleRebalance re-solves the instance: POST /instances/{id}/rebalance.
// ?scope=dirty (default) re-solves only the decomposition components the
// deltas since the last rebalance touched; ?scope=full re-solves every
// component. ?algo= picks the registry solver (default greedy), ?seed=
// fixes the random baselines. The solve
// runs under the request context, so a disconnected client cancels it
// (status 499) with the instance unchanged.
func (s *service) handleRebalance(w http.ResponseWriter, r *http.Request) {
	if !s.gateReady(w, r) {
		return
	}
	release, admitted := s.admit(w, r)
	if !admitted {
		return
	}
	defer release()
	inst, ok := s.get(w, r, r.PathValue("id"))
	if !ok {
		return
	}
	q := r.URL.Query()
	scope := q.Get("scope")
	if scope == "" {
		scope = "dirty"
	}
	if scope != "dirty" && scope != "full" {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("server: unknown scope %q (dirty or full)", scope))
		return
	}
	// Rebalances always run over the decomposition, so the portfolio is
	// refused here as it is for ?decompose=1 on /solve.
	spec, err := decomp.ParseQuery(q, s.defaults)
	if err == nil {
		spec.Decompose = true
		err = spec.Validate()
	}
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	algo := spec.Algo
	// With sharding on, a dirty giant component splits before solving; the
	// per-shard flow solves still warm-start from the instance's warm-flow
	// cache, a pure accelerator (bit-exact vs a cold solve).
	opt := spec.Options()
	opt.WarmCache = inst.warm

	start := time.Now()
	if !inst.lock(w, r) {
		return
	}
	defer inst.mu.Unlock()
	dirtyE, dirtyU := inst.Dirty()
	res, err := decomp.RebalanceScoped(r.Context(), inst.Arr, algo, dirtyE, dirtyU, scope == "full", opt)
	if err != nil {
		s.solveWindow(algo).Observe(time.Since(start).Seconds(), true)
		writeError(w, r, solveErrorStatus(err, http.StatusInternalServerError), err)
		return
	}

	// RebalanceScoped already adopted the outcome; a failed append restores
	// the matching it replaced, so the instance and its log stay unchanged.
	seq, err := inst.CommitRebalance(res.Adopted, res.Replaced)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	deltaOps(store.OpRebalance).Inc()
	s.maybeSnapshot(r.Context(), inst)

	elapsed := time.Since(start).Seconds()
	s.solveWindow(algo).Observe(elapsed, false)
	inst.recordRebalance(RebalanceOutcome{
		Time:             time.Now().UTC(),
		RequestID:        obs.RequestIDFrom(r.Context()),
		Scope:            scope,
		Algo:             algo,
		ComponentsSolved: res.ComponentsSolved,
		ComponentsTotal:  res.ComponentsTotal,
		Gain:             res.Gain,
		Adopted:          res.Adopted,
		Seconds:          elapsed,
	})
	requestLogger(r).Info("rebalance",
		"id", inst.Meta.ID, "scope", scope, "algo", algo,
		"components_solved", res.ComponentsSolved, "components_total", res.ComponentsTotal,
		"gain", res.Gain, "adopted", res.Adopted, "seconds", elapsed)
	writeJSON(w, r, RebalanceResponse{
		RebalanceResult: res,
		Scope:           scope,
		Algo:            algo,
		Seq:             seq,
		MaxSum:          inst.Arr.MaxSum(),
		Seconds:         elapsed,
	})
}

// register mounts the instance endpoints on mux.
func (s *service) register(mux *http.ServeMux) {
	mux.HandleFunc("POST /instances", s.handleCreateInstance)
	mux.HandleFunc("GET /instances", s.handleListInstances)
	mux.HandleFunc("GET /instances/{id}", s.handleGetInstance)
	mux.HandleFunc("DELETE /instances/{id}", s.handleDeleteInstance)
	mux.HandleFunc("POST /instances/{id}/events", s.handleDelta(decodeAddEvent))
	mux.HandleFunc("POST /instances/{id}/users", s.handleDelta(decodeAddUser))
	mux.HandleFunc("POST /instances/{id}/cancel", s.handleDelta(decodeCancel))
	mux.HandleFunc("POST /instances/{id}/rebalance", s.handleRebalance)
	mux.HandleFunc("GET /instances/{id}/stats", s.handleInstanceStats)
}
