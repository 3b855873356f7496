package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/server"
	"github.com/ebsnlab/geacc/internal/solvecache"
	"github.com/ebsnlab/geacc/internal/store"
)

// replayPerLane is how many measured requests of each lane the traced
// replay re-runs in-process.
const replayPerLane = 50

// unassigned marks a span whose parent is found by interval containment.
const unassigned = -2

// span is one timed interval of the traced replay. Spans the benchmark
// opens around a layer call know their parent; spans the program records
// itself (obs spans) get the tightest span of the same request that
// contains them.
type span struct {
	id, parent int // parent -1: the request's root
	req, lane  int
	name       string
	start, end time.Duration // since the replay's origin
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer records spans in memory; with on false it only runs the calls,
// which is the untraced pass the tracing overhead is measured against.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	stack  []int
	req    int
	lane   int
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	if !t.on {
		return f()
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{id: id, parent: parent, req: t.req, lane: t.lane, name: name,
		start: time.Since(t.origin)})
	t.stack = append(t.stack, id)
	err := f()
	t.spans[id].end = time.Since(t.origin)
	t.stack = t.stack[:len(t.stack)-1]
	return err
}

// request runs one replayed request under a root span, with an
// obs.Recorder on the context so the program's own spans (greedy/*,
// mincostflow/*, decomp/*, partition/*, instance/*) are captured and
// attached to the benchmark span that contains them.
func (t *tracer) request(ctx context.Context, lane, req int, name string, f func(context.Context) error) error {
	if !t.on {
		return f(ctx)
	}
	t.req, t.lane = req, lane
	first := len(t.spans)
	rec := obs.NewRecorderLimit(1 << 16)
	err := t.do(name, func() error { return f(obs.ContextWithRecorder(ctx, rec)) })
	for _, sd := range rec.Spans() {
		start := sd.Start.Sub(t.origin)
		t.spans = append(t.spans, span{id: len(t.spans), parent: unassigned, req: req, lane: lane,
			name: sd.Name, start: start, end: start + sd.Duration})
	}
	assignParents(t.spans[first:])
	return err
}

// assignParents gives every unassigned span of one request the tightest
// other span of the request whose interval contains it. Equal intervals
// are ordered by id, so the relation has no cycles. In a parallel section
// a child may land on a sibling of its true parent that happens to contain
// it; both then belong to one layer, so layer totals are unaffected.
func assignParents(spans []span) {
	for i := range spans {
		s := &spans[i]
		if s.parent != unassigned {
			continue
		}
		best := -1
		for j, c := range spans {
			if j == i || c.start > s.start || c.end < s.end {
				continue
			}
			if c.dur() == s.dur() && c.id > s.id {
				continue
			}
			if best < 0 || c.dur() < spans[best].dur() || (c.dur() == spans[best].dur() && c.id > spans[best].id) {
				best = j
			}
		}
		s.parent = -1
		if best >= 0 {
			s.parent = spans[best].id
		}
	}
}

// selfTimes returns each span's duration minus the union of its children's
// intervals (clipped to the span), so overlapping children of a parallel
// section are not subtracted twice. Span ids must equal their indices.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB time.Duration
		for k, v := range ivs {
			switch {
			case k == 0:
				curA, curB = v.a, v.b
			case v.a > curB:
				covered += curB - curA
				curA, curB = v.a, v.b
			case v.b > curB:
				curB = v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		out[i] = s.dur() - covered
	}
	return out
}

// layerOf maps a span name to the per-layer metric its self time counts
// toward; "" leaves it unattributed (request roots: replay glue).
func layerOf(name string) string {
	switch name {
	case "encoding.decode":
		return "encoding.decode_ms"
	case "encoding.encode":
		return "encoding.encode_ms"
	case "solvecache.key":
		return "solvecache.key_ms"
	case "core.solve":
		return "core.solve_ms"
	case "greedy/init":
		return "core.greedy.init_ms"
	case "greedy/scan":
		return "core.greedy.scan_ms"
	case "mincostflow/relax":
		return "mincostflow.relax_ms"
	case "mincostflow/resolve":
		return "mincostflow.resolve_ms"
	case "core.bound":
		return "core.bound_ms"
	case "core.validate":
		return "core.validate_ms"
	case "core.arranger":
		return "core.arranger_ms"
	case "decomp.decompose", "decomp/build":
		return "decomp.decompose_ms"
	case "decomp/solve", "decomp/component":
		return "decomp.solve_ms"
	case "decomp.rebalance", "instance/rebalance":
		return "decomp.rebalance_ms"
	case "partition/component":
		return "partition.split_ms"
	case "partition/shard":
		return "partition.shard_ms"
	case "partition/repair":
		return "partition.repair_ms"
	case "store.append":
		return "store.append_ms"
	case "store.snapshot", "instance/snapshot":
		return "store.snapshot_ms"
	}
	if strings.HasPrefix(name, "solve/") {
		return "core.solve_ms"
	}
	return ""
}

// replayResult is one pass of the in-process replay.
type replayResult struct {
	wall     time.Duration // over the measured requests only
	requests int
	spans    []span
}

// replay re-runs the warm-up and the first replayPerLane measured requests
// of every lane in one goroutine, calling each layer's public function the
// way the server's handler does. Only measured requests are timed and,
// with trace, recorded.
func replay(ctx context.Context, w *workload, ls []laneStream, dir string, trace bool) (replayResult, error) {
	var res replayResult
	t := &tracer{origin: time.Now()}
	var st *store.Store
	if w.solve == nil {
		var err error
		if st, err = store.Open(dir); err != nil {
			return res, err
		}
	}
	cache := solvecache.New(server.DefaultSolveCacheEntries)
	for l, lane := range ls {
		pre := append(append([]request(nil), lane.setup...), lane.reqs[:lane.warm]...)
		end := min(lane.warm+replayPerLane, len(lane.reqs))
		all := append(pre, lane.reqs[lane.warm:end]...)
		var inst *replayInstance
		for i, r := range all {
			measured := i >= len(pre)
			t.on = trace && measured
			start := time.Now()
			err := t.request(ctx, l, res.requests, r.kind.String(), func(ctx context.Context) error {
				if w.solve != nil {
					return replaySolve(ctx, t, w.solve, cache, r.body)
				}
				return replayDelta(ctx, t, st, &inst, r)
			})
			if err != nil {
				return res, fmt.Errorf("replay lane %d request %d (%s): %w", l, i, r.kind, err)
			}
			if measured {
				res.wall += time.Since(start)
				res.requests++
			}
		}
		if inst != nil {
			inst.wal.Close()
		}
	}
	res.spans = t.spans
	return res, nil
}

// writeJSONDiscard encodes v the way the server's writeJSON does.
func writeJSONDiscard(v any) error {
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// replaySolve mirrors the server's /solve handler step by step.
func replaySolve(ctx context.Context, t *tracer, s *solveSpec, cache *solvecache.Cache, body []byte) error {
	var in *core.Instance
	var info encoding.SimInfo
	if err := t.do("encoding.decode", func() (err error) {
		in, info, err = encoding.DecodeInstanceMeta(bytes.NewReader(body))
		return err
	}); err != nil {
		return err
	}
	shard := s.shardOptions()
	spec := solvecache.KeySpec{Algo: s.algo, Seed: 1, SimID: fmt.Sprintf("%s/%d/%v", info.Kind, info.Dim, info.MaxT),
		Decompose: shard != nil, Diag: s.diag}
	if shard != nil {
		spec.ApproxShard, spec.ShardMaxArea = true, shard.MaxArea
		spec.ShardStrategy, spec.ShardDriftBudget = string(shard.Strategy), shard.DriftBudget
	}
	var key solvecache.Key
	var cacheable bool
	_ = t.do("solvecache.key", func() error {
		key, cacheable = solvecache.InstanceKey(in, spec)
		return nil
	})
	if cacheable {
		if v, ok := cache.Get(key); ok {
			return t.do("encoding.encode", func() error { return writeJSONDiscard(v) })
		}
	}
	start := time.Now()
	var m *core.Matching
	if shard != nil {
		var d *decomp.Decomposition
		if err := t.do("decomp.decompose", func() (err error) {
			d, err = decomp.DecomposeContext(ctx, in)
			return err
		}); err != nil {
			return err
		}
		if err := t.do("core.solve", func() (err error) {
			m, err = d.SolveContext(ctx, s.algo, decomp.Options{Seed: 1, Shard: shard})
			return err
		}); err != nil {
			return err
		}
	} else if err := t.do("core.solve", func() (err error) {
		m, err = core.SolveContext(ctx, s.algo, in, rand.New(rand.NewSource(1)))
		return err
	}); err != nil {
		return err
	}
	var diag *core.Diagnostics
	if s.diag {
		_ = t.do("core.bound", func() error {
			diag = core.BuildDiagnostics(s.algo, in, m, time.Since(start), nil, nil)
			return nil
		})
	}
	if err := t.do("core.validate", func() error { return core.Validate(in, m) }); err != nil {
		return err
	}
	var resp server.SolveResponse
	if err := t.do("encoding.encode", func() error {
		var buf bytes.Buffer
		if err := encoding.EncodeMatching(&buf, m); err != nil {
			return err
		}
		var mj encoding.MatchingJSON
		if err := json.Unmarshal(buf.Bytes(), &mj); err != nil {
			return err
		}
		resp = server.SolveResponse{Matching: mj, Algo: s.algo, Seconds: time.Since(start).Seconds(),
			Events: in.NumEvents(), Users: in.NumUsers(), Diagnostics: diag}
		return writeJSONDiscard(resp)
	}); err != nil {
		return err
	}
	if cacheable {
		cache.Put(key, resp)
	}
	return nil
}

// replayInstance mirrors the server's per-instance state.
type replayInstance struct {
	meta   store.Meta
	arr    *core.Arranger
	wal    *store.Log
	dirtyE map[int]bool
	dirtyU map[int]bool
	scache *solvecache.Cache
	warm   *core.WarmCache
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// decodeStrict decodes a request body the way the server's decodeBody does.
func decodeStrict(t *tracer, body []byte, v any) error {
	return t.do("encoding.decode", func() error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	})
}

// maybeSnapshot mirrors the server: fold the log every
// server.DefaultSnapshotEvery ops. Like the server, it drops a snapshot
// failure; the log alone still recovers the instance.
func (inst *replayInstance) maybeSnapshot(ctx context.Context, t *tracer) {
	if inst.wal.OpsSinceSnapshot() < server.DefaultSnapshotEvery {
		return
	}
	_ = t.do("store.snapshot", func() error {
		return inst.wal.WriteSnapshot(ctx, inst.arr, sortedKeys(inst.dirtyE), sortedKeys(inst.dirtyU))
	})
}

// logThenApply mirrors the server's write-ahead sequence for one delta.
func (inst *replayInstance) logThenApply(ctx context.Context, t *tracer, op store.Op, mark func()) (int64, error) {
	var seq int64
	if err := t.do("store.append", func() (err error) {
		seq, err = inst.wal.Append(op)
		return err
	}); err != nil {
		return 0, err
	}
	if err := t.do("core.arranger", func() error { return store.Apply(inst.arr, op) }); err != nil {
		return 0, err
	}
	mark()
	inst.maybeSnapshot(ctx, t)
	return seq, nil
}

// replayDelta mirrors the server's instance handlers for one op.
func replayDelta(ctx context.Context, t *tracer, st *store.Store, instp **replayInstance, r request) error {
	inst := *instp
	encode := func(v any) error { return t.do("encoding.encode", func() error { return writeJSONDiscard(v) }) }
	switch r.kind {
	case opCreate:
		var req server.CreateInstanceRequest
		if err := decodeStrict(t, r.body, &req); err != nil {
			return err
		}
		meta := store.Meta{ID: req.ID, Sim: req.Sim, Dim: req.Dim, MaxT: req.MaxT}
		f, err := meta.SimInfo().Func()
		if err != nil {
			return err
		}
		inst = &replayInstance{meta: meta, dirtyE: map[int]bool{}, dirtyU: map[int]bool{},
			scache: solvecache.New(128), warm: core.NewWarmCache(64)}
		if err := t.do("store.append", func() (err error) {
			inst.wal, err = st.Create(meta)
			return err
		}); err != nil {
			return err
		}
		if inst.arr, err = core.NewArranger(f); err != nil {
			return err
		}
		*instp = inst
		return encode(server.InstanceSummary{ID: meta.ID, Sim: meta.Sim, Dim: meta.Dim})
	case opAddEvent:
		var req server.AddEventRequest
		if err := decodeStrict(t, r.body, &req); err != nil {
			return err
		}
		nv := inst.arr.NumEvents()
		seq, err := inst.logThenApply(ctx, t, store.Op{Kind: store.OpAddEvent, Attrs: req.Attrs, Cap: req.Cap,
			Conflicts: req.Conflicts}, func() { inst.dirtyE[nv] = true })
		if err != nil {
			return err
		}
		return encode(server.DeltaResponse{Op: store.OpAddEvent, ID: &nv, Matched: inst.arr.EventUsers(nv),
			Seq: seq, MaxSum: inst.arr.MaxSum()})
	case opAddUser:
		var req server.AddUserRequest
		if err := decodeStrict(t, r.body, &req); err != nil {
			return err
		}
		nu := inst.arr.NumUsers()
		seq, err := inst.logThenApply(ctx, t, store.Op{Kind: store.OpAddUser, Attrs: req.Attrs, Cap: req.Cap},
			func() { inst.dirtyU[nu] = true })
		if err != nil {
			return err
		}
		return encode(server.DeltaResponse{Op: store.OpAddUser, ID: &nu, Matched: inst.arr.UserEvents(nu),
			Seq: seq, MaxSum: inst.arr.MaxSum()})
	case opCancelEvent, opCancelUser:
		var req server.CancelRequest
		if err := decodeStrict(t, r.body, &req); err != nil {
			return err
		}
		op := store.Op{Kind: store.OpCancelEvent, Event: req.Event}
		mark := func() { inst.dirtyE[*req.Event] = true }
		if req.User != nil {
			op = store.Op{Kind: store.OpRemoveUser, User: req.User}
			mark = func() { inst.dirtyU[*req.User] = true }
		}
		seq, err := inst.logThenApply(ctx, t, op, mark)
		if err != nil {
			return err
		}
		return encode(server.DeltaResponse{Op: op.Kind, Seq: seq, MaxSum: inst.arr.MaxSum()})
	case opRebalance:
		opt := decomp.Options{Seed: 1, SolveCache: inst.scache, WarmCache: inst.warm,
			SimID: fmt.Sprintf("%s/%d/%v", inst.meta.Sim, inst.meta.Dim, inst.meta.MaxT)}
		var res decomp.RebalanceResult
		if err := t.do("decomp.rebalance", func() (err error) {
			res, err = decomp.RebalanceScoped(ctx, inst.arr, "mincostflow",
				sortedKeys(inst.dirtyE), sortedKeys(inst.dirtyU), false, opt)
			return err
		}); err != nil {
			return err
		}
		op := store.Op{Kind: store.OpRebalance, Adopted: res.Adopted}
		if res.Adopted {
			_ = t.do("core.arranger", func() error {
				for _, p := range inst.arr.Matching().Pairs() {
					op.Pairs = append(op.Pairs, encoding.PairJSON{V: p.V, U: p.U, Sim: p.Sim})
				}
				return nil
			})
		}
		var seq int64
		if err := t.do("store.append", func() (err error) {
			seq, err = inst.wal.Append(op)
			return err
		}); err != nil {
			return err
		}
		clear(inst.dirtyE)
		clear(inst.dirtyU)
		inst.maybeSnapshot(ctx, t)
		return encode(server.RebalanceResponse{RebalanceResult: res, Scope: "dirty", Algo: "mincostflow",
			Seq: seq, MaxSum: inst.arr.MaxSum()})
	case opStats:
		var in *core.Instance
		if err := t.do("core.arranger", func() (err error) {
			in, _, err = inst.arr.Snapshot()
			return err
		}); err != nil {
			return err
		}
		st := server.InstanceStats{ID: inst.meta.ID, MaxSum: inst.arr.MaxSum(),
			DirtyEvents: sortedKeys(inst.dirtyE), DirtyUsers: sortedKeys(inst.dirtyU)}
		_ = t.do("core.bound", func() error {
			st.RelaxedUpperBound = core.RelaxedUpperBound(in)
			return nil
		})
		if err := t.do("decomp.decompose", func() error {
			d, err := decomp.DecomposeContext(ctx, in)
			if err == nil {
				st.ComponentsTotal = len(d.Components)
				st.DirtyComponents = len(d.DirtyComponents(st.DirtyEvents, st.DirtyUsers))
			}
			return err
		}); err != nil {
			return err
		}
		return encode(st)
	}
	return fmt.Errorf("replay: unexpected op %s", r.kind)
}

// layerTable sums self time per layer over the traced requests.
func layerTable(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if l := layerOf(s.name); l != "" {
			out[l] += self[i]
		}
	}
	return out
}

// chromeEvent is one Trace Event Format "X" (complete) event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans as a Chrome trace Perfetto loads: one
// process per lane, and within it as many threads as parallel sections
// need, so every thread's events nest properly.
func writeChromeTrace(path string, spans []span) error {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.start != y.start {
			return x.start < y.start
		}
		return x.dur() > y.dur()
	})
	tracks := map[int][][]int{} // lane → per-thread stacks of open span indices
	events := make([]chromeEvent, 0, len(spans))
	for _, i := range order {
		s := spans[i]
		stacks := tracks[s.lane]
		tid := -1
		for k, st := range stacks {
			for len(st) > 0 && spans[st[len(st)-1]].end <= s.start {
				st = st[:len(st)-1]
			}
			if len(st) == 0 || spans[st[len(st)-1]].end >= s.end {
				stacks[k] = append(st, i)
				tid = k
				break
			}
			stacks[k] = st
		}
		if tid < 0 {
			stacks = append(stacks, []int{i})
			tid = len(stacks) - 1
		}
		tracks[s.lane] = stacks
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Pid: s.lane + 1, Tid: tid + 1,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Args: map[string]any{"id": s.id, "parent": s.parent, "req": s.req, "layer": layerOf(s.name)},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
