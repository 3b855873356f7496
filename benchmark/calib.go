package main

import (
	"container/heap"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The reference host's speed drifts by up to 2× over minutes, and CPU time
// drifts with wall time, so raw timings of the same code taken minutes
// apart disagree by more than any useful regression bound. The benchmark
// therefore times a fixed calibration round between every two rounds of
// traffic, while the server is idle, and reports every timing scaled by
// calReference / (calibration time measured around it): the time the run
// would have taken on a host where one calibration round takes
// calReference. The calibration is the benchmark's own code on the
// standard library only, with an input fixed by a constant seed, so a
// change to the program under test cannot move it.

// calReference is the time of one calibration round on the reference host,
// a 2-vCPU KVM guest (Intel Xeon, 2.0 GHz). It is a round value near the
// median there; over 80 runs single rounds took 29 to 63 ms.
const calReference = 35 * time.Millisecond

// calInput is the calibration kernels' fixed input.
type calInput struct {
	body []byte // a 100×1000, 20-dimensional instance-like JSON body
	adj  [][]calEdge
}

type calEdge struct {
	to int32
	w  float64
}

type calNode struct {
	Attrs []float64 `json:"attrs"`
	Cap   int       `json:"cap"`
}

type calDoc struct {
	Events []calNode `json:"events"`
	Users  []calNode `json:"users"`
}

var calibrationInput = sync.OnceValue(func() *calInput {
	rng := rand.New(rand.NewSource(20150413))
	node := func() calNode {
		a := make([]float64, 20)
		for i := range a {
			a[i] = 10000 * rng.Float64()
		}
		return calNode{Attrs: a, Cap: 1 + rng.Intn(10)}
	}
	var d calDoc
	for i := 0; i < 100; i++ {
		d.Events = append(d.Events, node())
	}
	for i := 0; i < 1000; i++ {
		d.Users = append(d.Users, node())
	}
	body, err := json.Marshal(d)
	if err != nil {
		panic(err) // plain structs of finite floats always marshal
	}
	in := &calInput{body: body, adj: make([][]calEdge, 20000)}
	for v := range in.adj {
		for k := 0; k < 5; k++ {
			in.adj[v] = append(in.adj[v], calEdge{int32(rng.Intn(len(in.adj))), rng.Float64()})
		}
	}
	return in
})

// The kernels cover what the server's requests spend their time on:
// decoding and allocating (calJSON), similarity scans and sorting
// (calSim), and heap-driven graph search with scattered reads (calGraph).
// Each returns a value that depends on all its work, so none is optimized
// away.

func calJSON(in *calInput) float64 {
	var d calDoc
	if err := json.Unmarshal(in.body, &d); err != nil {
		panic(err)
	}
	return float64(len(d.Users))
}

func calSim(in *calInput) float64 {
	var d calDoc
	if err := json.Unmarshal(in.body, &d); err != nil {
		panic(err)
	}
	row := make([]float64, len(d.Users))
	var s float64
	for _, e := range d.Events {
		for j, u := range d.Users {
			var q float64
			for k, x := range e.Attrs {
				t := x - u.Attrs[k]
				q += t * t
			}
			row[j] = math.Sqrt(q)
		}
		sort.Float64s(row)
		s += row[0]
	}
	return s
}

type calItem struct {
	v int32
	d float64
}

type calHeap []calItem

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)        { *h = append(*h, x.(calItem)) }
func (h *calHeap) Pop() any {
	o := *h
	x := o[len(o)-1]
	*h = o[:len(o)-1]
	return x
}

// calGraph runs Dijkstra from node 0 over a random sparse graph.
func calGraph(in *calInput) float64 {
	dist := make([]float64, len(in.adj))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[0] = 0
	h := &calHeap{{0, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(calItem)
		if it.d > dist[it.v] {
			continue
		}
		for _, e := range in.adj[it.v] {
			if nd := it.d + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				heap.Push(h, calItem{e.to, nd})
			}
		}
	}
	var s float64
	for _, x := range dist {
		if !math.IsInf(x, 1) {
			s += x
		}
	}
	return s
}

// calKernels are timed in turn; units is how many times each runs per
// round, so a round takes about 115 ms at the reference speed.
var calKernels = []struct {
	units int
	f     func(*calInput) float64
}{
	{4, calJSON},
	{2, calSim},
	{3, calGraph},
}

var calSink float64

// calibrate runs one calibration round: each kernel on every lane's core at
// once, as the traffic loads both. It returns the sum over kernels of the
// mean time per unit.
func calibrate() time.Duration {
	in := calibrationInput()
	// Start from a collected heap so the round never pays for a cycle
	// that the traffic's garbage began.
	runtime.GC()
	var total time.Duration
	for _, k := range calKernels {
		var wg sync.WaitGroup
		durs := make([]time.Duration, lanes)
		sums := make([]float64, lanes)
		for l := range durs {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				start := time.Now()
				for i := 0; i < k.units; i++ {
					sums[l] += k.f(in)
				}
				durs[l] = time.Since(start) / time.Duration(k.units)
			}(l)
		}
		wg.Wait()
		for l := range durs {
			total += durs[l] / lanes
			calSink += sums[l]
		}
	}
	return total
}

// scaleTo is the factor that takes a timing measured where a calibration
// round took cal to the reference host.
func scaleTo(cal time.Duration) float64 {
	return float64(calReference) / float64(cal)
}
