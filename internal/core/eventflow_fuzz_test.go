package core

import (
	"context"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/ebsnlab/geacc/internal/mincostflow"
)

// FuzzEventFlow holds the event-space relaxation to the successive-
// shortest-path solver kept in internal/mincostflow, run on the §III.A
// network with its users as nodes. Instances are small, with capacities
// 0–4 and similarities either quantized to quarters (so path costs tie
// exactly) or hashed to distinct 53-bit fractions, zeros in both. Cold,
// Δ must match and RelaxedMaxSum agree within 1e-9, every pair must be
// feasible and positive, and with distinct similarities the pairs and the
// RelaxedMaxSum bits must match. The rest of the input is a stream of
// arrivals and cancellations solved warm, each step held to the cold solve
// the same way. The seed corpus replays under plain `go test`.
func FuzzEventFlow(f *testing.F) {
	for i := range uint64(8) {
		seed := make([]byte, 96)
		for j := range seed {
			seed[j] = byte(splitmix(i<<8 | uint64(j)))
		}
		seed[0] = byte(i)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		uni, distinct, ops, ok := decodeFlowUniverse(data)
		if !ok {
			return
		}
		events, users := make([]int, uni.ne), make([]int, uni.nu)
		for i := range events {
			events[i] = i
		}
		for i := range users {
			users[i] = i
		}
		wc := NewWarmCache(2)
		for step := 0; ; step++ {
			in := uni.sub(events, users)
			cold, err := minCostFlowCtx(context.Background(), in, FlowOptions{})
			if err != nil {
				t.Fatal(err)
			}
			checkEventFlow(t, in, cold, distinct)
			warm, err := minCostFlowWarmCtx(context.Background(), in, events, users, wc)
			if err != nil {
				t.Fatal(err)
			}
			if distinct {
				if err := sameFlowResult(warm, cold); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			} else if warm.Delta != cold.Delta || math.Abs(warm.RelaxedMaxSum-cold.RelaxedMaxSum) > 1e-9 {
				t.Fatalf("step %d: warm Δ %d, RelaxedMaxSum %v; cold %d, %v", step, warm.Delta, warm.RelaxedMaxSum, cold.Delta, cold.RelaxedMaxSum)
			}
			mustValidate(t, in, warm.Matching, "mincostflow-warm")
			if step == len(ops) {
				return
			}
			events, users = uni.apply(ops[step], events, users)
		}
	})
}

// checkEventFlow holds a cold relaxation result to the SSPA oracle.
func checkEventFlow(t *testing.T, in *Instance, res *FlowResult, distinct bool) {
	t.Helper()
	delta, want := sspaRelaxation(in)
	if res.Delta != delta {
		t.Fatalf("Δ = %d, SSPA %d", res.Delta, delta)
	}
	if math.Abs(res.RelaxedMaxSum-want.MaxSum()) > 1e-9 {
		t.Fatalf("RelaxedMaxSum = %v, SSPA %v", res.RelaxedMaxSum, want.MaxSum())
	}
	loadV, loadU := make([]int, in.NumEvents()), make([]int, in.NumUsers())
	for _, p := range res.Relaxed.Pairs() {
		if p.Sim <= 0 || p.Sim != in.Similarity(p.V, p.U) {
			t.Fatalf("pair (%d, %d) carries sim %v, instance %v", p.V, p.U, p.Sim, in.Similarity(p.V, p.U))
		}
		loadV[p.V]++
		loadU[p.U]++
	}
	for v, e := range in.Events {
		if loadV[v] > e.Cap {
			t.Fatalf("event %d holds %d pairs, capacity %d", v, loadV[v], e.Cap)
		}
	}
	for u, usr := range in.Users {
		if loadU[u] > usr.Cap {
			t.Fatalf("user %d holds %d pairs, capacity %d", u, loadU[u], usr.Cap)
		}
	}
	if !distinct {
		return
	}
	if !slices.Equal(res.Relaxed.Pairs(), want.Pairs()) {
		t.Fatalf("M∅ %v, SSPA %v", res.Relaxed.SortedPairs(), want.SortedPairs())
	}
	if math.Float64bits(res.RelaxedMaxSum) != math.Float64bits(want.MaxSum()) {
		t.Fatalf("RelaxedMaxSum bits %x, SSPA %x", math.Float64bits(res.RelaxedMaxSum), math.Float64bits(want.MaxSum()))
	}
}

// sspaRelaxation solves in's conflict-free relaxation on the §III.A
// network — source, events, users, sink, a unit arc of cost 1 − sim per
// positive pair — with mincostflow's successive shortest paths, stopping
// at the first path of cost ≥ 1. It returns Δ and M∅, its pairs added in
// row-major order as relaxedOptimum adds them.
func sspaRelaxation(in *Instance) (int64, *Matching) {
	nv, nu := in.NumEvents(), in.NumUsers()
	s, t := 0, 1+nv+nu
	g := mincostflow.NewGraph(nv + nu + 2)
	for v, e := range in.Events {
		g.AddArc(s, 1+v, int64(e.Cap), 0)
	}
	for u, usr := range in.Users {
		g.AddArc(1+nv+u, t, int64(usr.Cap), 0)
	}
	pairArc := make([]mincostflow.ArcID, nv*nu)
	for i := range pairArc {
		pairArc[i] = -1
		if sim := in.Similarity(i/nu, i%nu); sim > 0 {
			pairArc[i] = g.AddArc(1+i/nu, 1+nv+i%nu, 1, 1-sim)
		}
	}
	sv := mincostflow.NewSolver(g, s, t)
	for more := true; more; {
		_, more = sv.AugmentPaths(math.MaxInt64, 1)
	}
	m := NewMatching()
	for i, a := range pairArc {
		if a >= 0 && g.Flow(a) == 1 {
			m.Add(i/nu, i%nu, in.Similarity(i/nu, i%nu))
		}
	}
	return sv.TotalFlow(), m
}

// decodeFlowUniverse reads
//
//	byte 0       bit 0: similarities distinct (1) or in quarters (0)
//	byte 1       pool events 1 + b%6
//	byte 2       pool users 1 + b%8
//	cap bytes    per event and per user b%5
//	sim bytes    one per (event, user) pair, row-major: b%5 = 0 is
//	             similarity 0; otherwise (b%5)/4 in quarters, or a hash of
//	             the byte, the pair and an 8-byte seed when distinct
//	8 bytes      the seed, when distinct
//	rest         the delta stream, one op per byte (at most 24): see
//	             warmUniverse.apply (an arrival or a departure, a
//	             cancellation as capacity 0, a capacity change)
//
// ok is false when data is too short.
func decodeFlowUniverse(data []byte) (uni *warmUniverse, distinct bool, ops []byte, ok bool) {
	if len(data) < 3 {
		return nil, false, nil, false
	}
	distinct = data[0]&1 == 1
	ne, nu := 1+int(data[1]%6), 1+int(data[2]%8)
	need := 3 + ne + nu + ne*nu
	if distinct {
		need += 8
	}
	if len(data) < need {
		return nil, false, nil, false
	}
	caps := data[3 : 3+ne+nu]
	sims := data[3+ne+nu : 3+ne+nu+ne*nu]
	var seed uint64
	if distinct {
		seed = binary.LittleEndian.Uint64(data[need-8 : need])
	}
	uni = &warmUniverse{ne: ne, nu: nu}
	for e := 0; e < ne; e++ {
		uni.eventCaps = append(uni.eventCaps, int(caps[e]%5))
		row := make([]float64, nu)
		for u := range row {
			b := sims[e*nu+u]
			switch {
			case b%5 == 0:
			case distinct:
				row[u] = float64(splitmix(seed^uint64(e<<16|u<<8|int(b)))>>11|1) / (1 << 53)
			default:
				row[u] = float64(b%5) / 4
			}
		}
		uni.sim = append(uni.sim, row)
		uni.conflicts = append(uni.conflicts, make([]bool, ne))
	}
	for u := 0; u < nu; u++ {
		uni.userCaps = append(uni.userCaps, int(caps[ne+u]%5))
	}
	ops = data[need:]
	if len(ops) > 24 {
		ops = ops[:24]
	}
	return uni, distinct, ops, true
}

// TestEventFlowSearchesSmallerSide solves instances with many more events
// than users, where the search runs over the users (eventFlow.reset), and
// holds them to the SSPA oracle bit for bit. No search may settle more
// nodes than there are users.
func TestEventFlowSearchesSmallerSide(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		nv, nu := 150+int(seed%7)*20, 3+int(seed%5)
		events, users := make([]Event, nv), make([]User, nu)
		matrix := make([][]float64, nv)
		for v := range events {
			events[v].Cap = int(splitmix(seed<<32|uint64(v)) % 4)
			matrix[v] = make([]float64, nu)
			for u := range matrix[v] {
				if h := splitmix(seed<<40 | uint64(v)<<8 | uint64(u)); h%5 != 0 {
					matrix[v][u] = float64(h>>11|1) / (1 << 53)
				}
			}
		}
		for u := range users {
			users[u].Cap = 1 + int(splitmix(seed<<48|uint64(u))%30)
		}
		in, err := NewMatrixInstance(events, users, nil, matrix)
		if err != nil {
			t.Fatal(err)
		}
		n0, p0 := mcflowSearches.Value(), mcflowDijkstraPops.Value()
		res, err := minCostFlowCtx(context.Background(), in, FlowOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if searches, pops := mcflowSearches.Value()-n0, mcflowDijkstraPops.Value()-p0; pops > searches*int64(nu) {
			t.Fatalf("seed %d: %d searches settled %d nodes, more than %d users each", seed, searches, pops, nu)
		}
		checkEventFlow(t, in, res, true)
	}
}
