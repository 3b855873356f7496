package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"

	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/partition"
	"github.com/ebsnlab/geacc/internal/randx"
)

// Op is one scheduled HTTP request of a lane's stream: everything but the
// host. Bodies are pre-encoded so the measured loop spends nothing on
// generation.
type Op struct {
	Method string
	Path   string // path + query, e.g. "/solve?algo=greedy&seed=1"
	Body   []byte // nil for body-less requests
}

// laneSeed derives the per-lane RNG seed. The odd multiplier spreads lanes
// across the seed space so lane streams are decorrelated while staying a
// pure function of (seed, lane).
func laneSeed(seed int64, lane int) int64 {
	return seed + int64(lane)*0x9e3779b9
}

// laneStream is the deterministic request generator for one lane (one
// closed-loop worker, or the single open-loop scheduler). Setup ops run
// once before the clock starts; Next yields the measured-phase stream.
type laneStream struct {
	setup []Op
	next  func() Op
}

// newLaneStream builds lane's stream for sc. Everything is derived from
// (sc, seed, lane): same inputs, byte-identical ops.
func newLaneStream(sc Scenario, seed int64, lane int) (*laneStream, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	switch sc.Kind {
	case KindSolve:
		return newSolveStream(sc, seed, lane)
	default:
		return newDeltaStream(sc, seed, lane)
	}
}

// newSolveStream pre-encodes the lane's instance pool and cycles it. The
// pool is shared across lanes by construction (same seeds), but each lane
// starts at its own offset so concurrent workers don't hit the server with
// identical bodies in lockstep.
func newSolveStream(sc Scenario, seed int64, lane int) (*laneStream, error) {
	spec := decomp.Spec{Algo: sc.Algo, Seed: 1, NoCache: sc.NoCache}
	if sc.ApproxShard {
		spec.Shard = &partition.Options{MaxArea: sc.ShardMaxArea, Strategy: partition.Strategy(sc.ShardStrategy)}
	}
	path := "/solve?" + spec.Query()
	bodies := make([][]byte, sc.Variants)
	for v := range bodies {
		cfg := dataset.DefaultSynthetic()
		cfg.NumEvents = sc.Events
		cfg.NumUsers = sc.Users
		cfg.CFRatio = sc.CFRatio
		cfg.Seed = seed + int64(v)
		in, err := cfg.Generate()
		if err != nil {
			return nil, fmt.Errorf("load: scenario %q: %w", sc.Name, err)
		}
		var buf bytes.Buffer
		if err := encoding.EncodeInstance(&buf, in, encoding.SimEuclidean, cfg.Dim, cfg.MaxT); err != nil {
			return nil, fmt.Errorf("load: scenario %q: %w", sc.Name, err)
		}
		bodies[v] = buf.Bytes()
	}
	i := lane % sc.Variants
	next := func() Op {
		op := Op{Method: "POST", Path: path, Body: bodies[i]}
		i = (i + 1) % sc.Variants
		return op
	}
	return &laneStream{next: next}, nil
}

// Delta request bodies, mirroring the server's instance API contract (see
// docs/SERVICE.md). Declared locally so the harness stays an honest
// external client of the wire format rather than sharing structs with the
// handler it is supposed to exercise.
type createBody struct {
	ID   string  `json:"id"`
	Sim  string  `json:"sim"`
	Dim  int     `json:"dim"`
	MaxT float64 `json:"max_t"`
}

type addEventBody struct {
	Attrs     []float64 `json:"attrs"`
	Cap       int       `json:"cap"`
	Conflicts []int     `json:"conflicts,omitempty"`
}

type addUserBody struct {
	Attrs []float64 `json:"attrs"`
	Cap   int       `json:"cap"`
}

type cancelBody struct {
	Event *int `json:"event,omitempty"`
	User  *int `json:"user,omitempty"`
}

// newDeltaStream builds lane's instance-delta stream. The lane owns the
// instance "load-<scenario>-<lane>" exclusively, so its op order is
// sequential no matter how workers interleave, and cancels may reference
// any previously added id: the arranger tombstones cancelled nodes (ids
// never shrink, repeated cancel is a no-op), so a cancel of an
// already-cancelled id is still a valid request.
func newDeltaStream(sc Scenario, seed int64, lane int) (*laneStream, error) {
	id := fmt.Sprintf("load-%s-%d", sc.Name, lane)
	base := "/instances/" + url.PathEscape(id)
	rng := randx.Source(laneSeed(seed, lane))

	nEvents, nUsers := 0, 0
	attrs := func() []float64 {
		a := make([]float64, sc.Dim)
		for i := range a {
			a[i] = randx.Uniform(rng, 0, sc.MaxT)
		}
		return a
	}
	addEvent := func() Op {
		b := addEventBody{Attrs: attrs(), Cap: randx.UniformInt(rng, 1, 8)}
		// A third of arrivals conflict with one earlier event, keeping the
		// rebalance decomposition non-trivial.
		if nEvents > 0 && rng.Intn(3) == 0 {
			b.Conflicts = []int{rng.Intn(nEvents)}
		}
		nEvents++
		return Op{Method: "POST", Path: base + "/events", Body: mustJSON(b)}
	}
	addUser := func() Op {
		nUsers++
		return Op{Method: "POST", Path: base + "/users", Body: mustJSON(addUserBody{Attrs: attrs(), Cap: randx.UniformInt(rng, 1, 3)})}
	}

	setup := make([]Op, 0, 1+sc.SetupEvents+sc.SetupUsers)
	setup = append(setup, Op{Method: "POST", Path: "/instances",
		Body: mustJSON(createBody{ID: id, Sim: string(encoding.SimEuclidean), Dim: sc.Dim, MaxT: sc.MaxT})})
	for i := 0; i < sc.SetupEvents; i++ {
		setup = append(setup, addEvent())
	}
	for i := 0; i < sc.SetupUsers; i++ {
		setup = append(setup, addUser())
	}

	next := func() Op {
		switch op := pickOp(rng, sc.Mix); op {
		case opAddEvent:
			return addEvent()
		case opAddUser:
			return addUser()
		case opCancelEvent:
			if nEvents == 0 {
				return addEvent()
			}
			v := rng.Intn(nEvents)
			return Op{Method: "POST", Path: base + "/cancel", Body: mustJSON(cancelBody{Event: &v})}
		case opCancelUser:
			if nUsers == 0 {
				return addUser()
			}
			u := rng.Intn(nUsers)
			return Op{Method: "POST", Path: base + "/cancel", Body: mustJSON(cancelBody{User: &u})}
		default:
			return Op{Method: "POST", Path: base + "/rebalance?scope=dirty&algo=greedy&seed=1"}
		}
	}
	return &laneStream{setup: setup, next: next}, nil
}

type deltaOp int

const (
	opAddEvent deltaOp = iota
	opAddUser
	opCancelEvent
	opCancelUser
	opRebalance
)

// pickOp draws one op kind from the mix's weights.
func pickOp(rng *rand.Rand, m Mix) deltaOp {
	n := rng.Intn(m.total())
	if n -= m.AddEvent; n < 0 {
		return opAddEvent
	}
	if n -= m.AddUser; n < 0 {
		return opAddUser
	}
	if n -= m.CancelEvent; n < 0 {
		return opCancelEvent
	}
	if n -= m.CancelUser; n < 0 {
		return opCancelUser
	}
	return opRebalance
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // statically shaped structs; cannot fail
	}
	return b
}

// Ops materializes one lane's stream — the setup ops followed by the first
// n measured-phase ops — as a pure function of (sc, seed, lane). The
// determinism property test pins Run's request sequence through this.
func Ops(sc Scenario, seed int64, lane, n int) ([]Op, error) {
	ls, err := newLaneStream(sc, seed, lane)
	if err != nil {
		return nil, err
	}
	out := make([]Op, 0, len(ls.setup)+n)
	out = append(out, ls.setup...)
	for i := 0; i < n; i++ {
		out = append(out, ls.next())
	}
	return out, nil
}
