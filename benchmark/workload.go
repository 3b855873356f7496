package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"sync"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/partition"
	"github.com/ebsnlab/geacc/internal/server"
	"github.com/ebsnlab/geacc/internal/sim"
)

// lanes is the closed-loop client count: one connection each, so two
// outstanding requests keep both cores of the reference box busy without
// oversubscribing it.
const lanes = 2

// warmupDivisor makes the first 1/20 (5%) of each lane's stream warm-up:
// sent, checked, but not recorded.
const warmupDivisor = 20

// opKind says what one request does; the checker and the replay dispatch
// on it.
type opKind int

const (
	opSolve       opKind = iota // POST /solve with a fresh instance
	opRepeat                    // POST /solve repeating an earlier request of the lane
	opCreate                    // POST /instances
	opAddEvent                  // POST /instances/{id}/events
	opAddUser                   // POST /instances/{id}/users
	opCancelEvent               // POST /instances/{id}/cancel {"event":v}
	opCancelUser                // POST /instances/{id}/cancel {"user":u}
	opRebalance                 // POST /instances/{id}/rebalance?scope=dirty&algo=mincostflow
	opStats                     // GET /instances/{id}/stats
)

var opNames = [...]string{"solve", "repeat", "create", "add_event", "add_user",
	"cancel_event", "cancel_user", "rebalance", "stats"}

func (k opKind) String() string { return opNames[k] }

// solver reports whether the request runs a solver on the server: the
// population of the solve_* metrics.
func (k opKind) solver() bool { return k == opSolve || k == opRebalance }

// request is one pre-generated HTTP request of a lane.
type request struct {
	kind   opKind
	method string
	path   string
	body   []byte
	// instSeed regenerates the instance of a fresh solve for checking;
	// of is the lane index of the fresh request a repeat copies.
	instSeed int64
	of       int
	// wantID is the id the server must assign to an arrival.
	wantID int
}

// laneStream is everything one lane sends, generated before any clock
// starts.
type laneStream struct {
	setup []request // the set-up solve, or on instance-deltas create plus the initial population
	reqs  []request // the run: reqs[:warm] are warm-up
	warm  int
	// final is the instance the deltas stream leaves behind, cancelled
	// nodes at capacity 0, for checking the final arrangement.
	final *core.Instance
	id    string // instance-deltas: the lane's instance id
}

// solveSpec describes a stateless /solve workload.
type solveSpec struct {
	algo  string
	diag  bool
	shard bool
	// shardArea, when positive, is sent as ?shard_max_area=.
	shardArea int64
	repeats   bool // a quarter of each lane repeats one of its last 8 fresh requests
	gen       func(seed int64) (*core.Instance, error)
	simKind   encoding.SimKind
	dim       int
	maxT      float64
}

// query is the /solve query string the workload sends.
func (s *solveSpec) query() string {
	q := url.Values{"algo": {s.algo}}
	if s.diag {
		q.Set("diag", "1")
	}
	if s.shard {
		q.Set("approx_shard", "1")
	}
	if s.shardArea > 0 {
		q.Set("shard_max_area", strconv.FormatInt(s.shardArea, 10))
	}
	return q.Encode()
}

// shardOptions are the partition options the server derives from the
// query with no service default.
func (s *solveSpec) shardOptions() *partition.Options {
	if !s.shard {
		return nil
	}
	o := partition.Options{Strategy: partition.StrategyModularity, MaxArea: s.shardArea}.Normalized()
	return &o
}

// workload is one named traffic mix.
type workload struct {
	name string
	// laneRate is requests per second per lane at the reference commit. The
	// per-lane request count is laneRate × -seconds, fixed before the run,
	// so every commit does identical work and a faster one finishes sooner.
	laneRate float64
	solve    *solveSpec // nil for instance-deltas
}

// TABLE III default instances (100 events, 1000 users, d=20, T=10^4,
// cf=0.25) and the 20x200 shape with the same distributions.
func synthetic(events, users int) func(int64) (*core.Instance, error) {
	return func(seed int64) (*core.Instance, error) {
		cfg := dataset.DefaultSynthetic()
		cfg.NumEvents, cfg.NumUsers, cfg.Seed = events, users, seed
		return cfg.Generate()
	}
}

// Clustered cosine instances whose bridge users chain the 8 communities
// into one giant component: the input approximate sharding exists for.
func clusteredBridged(events, users int) func(int64) (*core.Instance, error) {
	return func(seed int64) (*core.Instance, error) {
		cfg := dataset.DefaultClustered()
		cfg.NumEvents, cfg.NumUsers, cfg.BridgeFrac, cfg.Seed = events, users, 0.05, seed
		return cfg.Generate()
	}
}

var workloads = []*workload{
	{
		name: "solve-greedy", laneRate: 22,
		solve: &solveSpec{algo: "greedy", repeats: true, gen: synthetic(100, 1000),
			simKind: encoding.SimEuclidean, dim: 20, maxT: 10000},
	},
	{
		name: "solve-mcflow-diag", laneRate: 13,
		solve: &solveSpec{algo: "mincostflow", diag: true, gen: synthetic(20, 200),
			simKind: encoding.SimEuclidean, dim: 20, maxT: 10000},
	},
	{
		name: "solve-sharded", laneRate: 18,
		solve: &solveSpec{algo: "mincostflow", shard: true, shardArea: 6000, gen: clusteredBridged(24, 480),
			simKind: encoding.SimCosine, dim: 64, maxT: 1},
	},
	{name: "instance-deltas", laneRate: 66.7},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// workloadIndex keys seed derivation, so two workloads never share inputs.
func workloadIndex(w *workload) int64 {
	for i, x := range workloads {
		if x == w {
			return int64(i)
		}
	}
	return -1
}

// perLane is the fixed request count of one lane for a run of the given
// length, rounded to the workload's granularity so the warm-up share, the
// repeat share and the per-mille delta mix all come out exact.
func (w *workload) perLane(seconds int) int {
	step := 20.0 // 5% warm-up and 25% repeats
	if w.solve == nil {
		step = deltaBlock
	}
	n := int(w.laneRate*float64(seconds)/step+0.5) * int(step)
	if n < int(step) {
		n = int(step)
	}
	return n
}

// subSeed derives an independent stream seed from the run seed and labels
// (splitmix64 mixing), so same seed gives same inputs and neighbouring
// seeds share nothing.
func subSeed(seed int64, labels ...int64) int64 {
	x := uint64(seed)
	for _, l := range labels {
		x ^= uint64(l) * 0x9E3779B97F4A7C15
		x += 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// streams generates every lane's requests for the workload; n overrides
// the per-lane count when positive.
func (w *workload) streams(seed int64, n int) ([]laneStream, error) {
	out := make([]laneStream, lanes)
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for l := range out {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			laneSeed := subSeed(seed, workloadIndex(w), int64(l))
			if w.solve != nil {
				out[l], errs[l] = solveStream(w.solve, laneSeed, n)
			} else {
				out[l], errs[l] = deltaStream(deltaID(seed, l), l, laneSeed, n)
			}
		}(l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if w.solve != nil {
		// A solve server is set up when it has given its first answer. The
		// set-up instance is the same for every seed, so setup_s measures
		// the same work on every run.
		r, err := freshRequest(w.solve, setupInstanceSeed, 0)
		if err != nil {
			return nil, err
		}
		out[0].setup = []request{r}
	}
	return out, nil
}

// setupInstanceSeed generates the set-up solve of every solve workload.
const setupInstanceSeed = 2015

// freshRequest is a /solve request, at index i of its lane, for the
// instance the spec generates from instSeed.
func freshRequest(s *solveSpec, instSeed int64, i int) (request, error) {
	in, err := s.gen(instSeed)
	if err != nil {
		return request{}, err
	}
	body, err := encodeInstance(in, s)
	if err != nil {
		return request{}, err
	}
	return request{kind: opSolve, method: "POST", path: "/solve?" + s.query(), body: body, instSeed: instSeed, of: i}, nil
}

// encodeInstance renders an instance in the repository's JSON instance
// format, compacted so the pre-generated bodies stay small in memory.
func encodeInstance(in *core.Instance, s *solveSpec) ([]byte, error) {
	var indented, compact bytes.Buffer
	if err := encoding.EncodeInstance(&indented, in, s.simKind, s.dim, s.maxT); err != nil {
		return nil, err
	}
	if err := json.Compact(&compact, indented.Bytes()); err != nil {
		return nil, err
	}
	return compact.Bytes(), nil
}

// solveStream builds one lane of a /solve workload. With repeats, exactly a
// quarter of the lane re-sends one of the lane's last 8 fresh requests
// byte for byte, so the server's memo cache answers it; the first request
// is always fresh.
func solveStream(s *solveSpec, laneSeed int64, n int) (laneStream, error) {
	rng := rand.New(rand.NewSource(laneSeed))
	repeat := make([]bool, n)
	if s.repeats {
		for _, i := range rng.Perm(n - 1)[:n/4] {
			repeat[i+1] = true
		}
	}
	ls := laneStream{reqs: make([]request, n), warm: n / warmupDivisor}
	var fresh []int
	for i := range ls.reqs {
		if repeat[i] {
			back := len(fresh)
			if back > 8 {
				back = 8
			}
			of := fresh[len(fresh)-1-rng.Intn(back)]
			r := ls.reqs[of]
			r.kind, r.of = opRepeat, of
			ls.reqs[i] = r
			continue
		}
		r, err := freshRequest(s, rng.Int63(), i)
		if err != nil {
			return laneStream{}, err
		}
		ls.reqs[i] = r
		fresh = append(fresh, i)
	}
	return ls, nil
}

// instance-deltas shape: cosine similarity over 8 disjoint 8-wide
// community blocks, conflicts only inside a community, so the instance
// decomposes into 8 components and a dirty rebalance touches few of them.
const (
	deltaCommunities = 8
	deltaBlockDim    = 8
	deltaDim         = deltaCommunities * deltaBlockDim
	deltaSetupEvents = 32
	deltaSetupUsers  = 640
	deltaConflictP   = 0.25
)

// deltaMix is the per-mille op mix of the run after set-up.
var deltaMix = []struct {
	kind     opKind
	perMille int
}{
	{opAddUser, 500},
	{opAddEvent, 60},
	{opCancelUser, 150},
	{opCancelEvent, 40},
	{opRebalance, 245},
	{opStats, 5},
}

// deltaID names a lane's instance; it carries the seed so runs with
// different seeds never collide on a server that kept its data.
func deltaID(seed int64, lane int) string {
	return fmt.Sprintf("bench-%d-lane%d", uint64(seed), lane)
}

// deltaGen simulates the arranger's id assignment so every generated
// reference is valid and every arrival's id is known in advance.
type deltaGen struct {
	rng        *rand.Rand
	prefix     string
	events     []core.Event
	users      []core.User
	pairs      [][2]int
	eventComm  []int                   // community of each event
	commEvents [deltaCommunities][]int // active events per community
	activeE    []int
	activeU    []int
}

func (g *deltaGen) attrs(k int) []float64 {
	v := make([]float64, deltaDim)
	for i := k * deltaBlockDim; i < (k+1)*deltaBlockDim; i++ {
		v[i] = 0.1 + 0.9*g.rng.Float64()
	}
	return v
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain request structs are marshalled
	}
	return b
}

// addEvent and addUser place arrivals in the communities round-robin, so
// the components grow alike on every seed.
func (g *deltaGen) addEvent() request {
	id := len(g.events)
	k := id % deltaCommunities
	var cf []int
	for _, w := range g.commEvents[k] {
		if g.rng.Float64() < deltaConflictP {
			cf = append(cf, w)
			g.pairs = append(g.pairs, [2]int{w, id})
		}
	}
	e := core.Event{Attrs: g.attrs(k), Cap: 20 + g.rng.Intn(11)}
	g.events = append(g.events, e)
	g.eventComm = append(g.eventComm, k)
	g.commEvents[k] = append(g.commEvents[k], id)
	g.activeE = append(g.activeE, id)
	body := mustJSON(server.AddEventRequest{Attrs: e.Attrs, Cap: e.Cap, Conflicts: cf})
	return request{kind: opAddEvent, method: "POST", path: g.prefix + "/events", body: body, wantID: id}
}

func (g *deltaGen) addUser() request {
	id := len(g.users)
	u := core.User{Attrs: g.attrs(id % deltaCommunities), Cap: 1 + g.rng.Intn(4)}
	g.users = append(g.users, u)
	g.activeU = append(g.activeU, id)
	body := mustJSON(server.AddUserRequest{Attrs: u.Attrs, Cap: u.Cap})
	return request{kind: opAddUser, method: "POST", path: g.prefix + "/users", body: body, wantID: id}
}

// takeActive removes and returns a random element of *ids.
func (g *deltaGen) takeActive(ids *[]int) int {
	s := *ids
	i := g.rng.Intn(len(s))
	x := s[i]
	s[i] = s[len(s)-1]
	*ids = s[:len(s)-1]
	return x
}

func (g *deltaGen) cancelEvent() request {
	v := g.takeActive(&g.activeE)
	g.events[v].Cap = 0
	k := g.eventComm[v]
	for i, w := range g.commEvents[k] {
		if w == v {
			g.commEvents[k] = append(g.commEvents[k][:i], g.commEvents[k][i+1:]...)
			break
		}
	}
	return request{kind: opCancelEvent, method: "POST", path: g.prefix + "/cancel",
		body: mustJSON(server.CancelRequest{Event: &v})}
}

func (g *deltaGen) cancelUser() request {
	u := g.takeActive(&g.activeU)
	g.users[u].Cap = 0
	return request{kind: opCancelUser, method: "POST", path: g.prefix + "/cancel",
		body: mustJSON(server.CancelRequest{User: &u})}
}

// deltaBlock is the op count over which the per-mille mix is exact.
const deltaBlock = 200

// deltaKinds is a lane's op-kind sequence: blocks of deltaBlock ops in the
// exact per-mille mix, each shuffled by a generator seeded with the lane
// index alone. The run seed chooses only the ops' values, so every seed
// does the same kinds of work in the same order.
func deltaKinds(lane, n int) ([]opKind, error) {
	if n%deltaBlock != 0 {
		return nil, fmt.Errorf("delta mix needs a multiple of %d ops, not %d", deltaBlock, n)
	}
	rng := rand.New(rand.NewSource(int64(lane) + 1))
	kinds := make([]opKind, 0, n)
	for len(kinds) < n {
		block := make([]opKind, 0, deltaBlock)
		for _, m := range deltaMix {
			for i := 0; i < deltaBlock*m.perMille/1000; i++ {
				block = append(block, m.kind)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		kinds = append(kinds, block...)
	}
	return kinds, nil
}

// deltaStream builds lane's stream of instance-deltas: set-up creates the
// lane's instance with 32 events and 640 users, then the run applies n ops
// in the exact per-mille mix (deltaKinds).
func deltaStream(id string, lane int, laneSeed int64, n int) (laneStream, error) {
	kinds, err := deltaKinds(lane, n)
	if err != nil {
		return laneStream{}, err
	}
	g := &deltaGen{rng: rand.New(rand.NewSource(laneSeed)), prefix: "/instances/" + id}
	ls := laneStream{id: id, warm: n / warmupDivisor}
	ls.setup = append(ls.setup, request{kind: opCreate, method: "POST", path: "/instances",
		// max_t is meaningless for cosine but the snapshot encoder requires
		// it; without it every snapshot of the instance fails.
		body: mustJSON(server.CreateInstanceRequest{ID: id, Sim: encoding.SimCosine, Dim: deltaDim, MaxT: 1})})
	for i := 0; i < deltaSetupEvents; i++ {
		ls.setup = append(ls.setup, g.addEvent())
	}
	for i := 0; i < deltaSetupUsers; i++ {
		ls.setup = append(ls.setup, g.addUser())
	}

	for _, k := range kinds {
		var r request
		switch k {
		case opAddUser:
			r = g.addUser()
		case opAddEvent:
			r = g.addEvent()
		case opCancelUser:
			r = g.cancelUser()
		case opCancelEvent:
			r = g.cancelEvent()
		case opRebalance:
			r = request{kind: opRebalance, method: "POST", path: g.prefix + "/rebalance?scope=dirty&algo=mincostflow"}
		case opStats:
			r = request{kind: opStats, method: "GET", path: g.prefix + "/stats"}
		}
		ls.reqs = append(ls.reqs, r)
	}
	final, err := core.NewInstance(g.events, g.users, conflict.FromPairs(len(g.events), g.pairs), sim.Cosine())
	if err != nil {
		return laneStream{}, err
	}
	ls.final = final
	return ls, nil
}
