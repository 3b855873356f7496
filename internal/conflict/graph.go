// Package conflict models the conflicting-event-pair set CF of the GEACC
// problem (Definition 3 of the paper): a pair of events conflicts when no
// user can attend both, e.g. because their timetables overlap or their venues
// are too far apart to travel between.
//
// The package provides an undirected conflict graph over event indices,
// random conflict sampling at a target density (how the paper's evaluation
// generates CF), and derivation of conflicts from event schedules
// (time intervals + locations + travel speed), which is the semantics the
// paper's introduction motivates.
package conflict

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/ebsnlab/geacc/internal/randx"
)

// Graph is an undirected conflict graph over the event indices [0, n).
// Lookups are O(1) via a bitset of size n²/2; neighbor enumeration is O(deg)
// via adjacency lists. The zero value is unusable; call New.
type Graph struct {
	n     int
	adj   [][]int
	bits  []uint64
	edges int
}

// New returns an empty conflict graph over n events.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("conflict: negative event count %d", n))
	}
	words := (n*n + 63) / 64
	return &Graph{
		n:    n,
		adj:  make([][]int, n),
		bits: make([]uint64, words),
	}
}

// N returns the number of events the graph ranges over.
func (g *Graph) N() int { return g.n }

// Edges returns the number of conflicting pairs |CF|.
func (g *Graph) Edges() int { return g.edges }

func (g *Graph) bit(i, j int) int { return i*g.n + j }

// Add marks events i and j as conflicting. Self-pairs and duplicates are
// ignored; out-of-range indices panic.
func (g *Graph) Add(i, j int) {
	if i < 0 || j < 0 || i >= g.n || j >= g.n {
		panic(fmt.Sprintf("conflict: pair (%d, %d) out of range [0, %d)", i, j, g.n))
	}
	if i == j || g.Conflicting(i, j) {
		return
	}
	g.bits[g.bit(i, j)/64] |= 1 << (g.bit(i, j) % 64)
	g.bits[g.bit(j, i)/64] |= 1 << (g.bit(j, i) % 64)
	g.adj[i] = append(g.adj[i], j)
	g.adj[j] = append(g.adj[j], i)
	g.edges++
}

// Conflicting reports whether events i and j conflict. An event never
// conflicts with itself.
func (g *Graph) Conflicting(i, j int) bool {
	b := g.bit(i, j)
	return g.bits[b/64]&(1<<(b%64)) != 0
}

// Neighbors returns the events conflicting with i. The returned slice is
// owned by the graph; callers must not modify it.
func (g *Graph) Neighbors(i int) []int { return g.adj[i] }

// ConflictsWithAny reports whether event v conflicts with any event in set.
func (g *Graph) ConflictsWithAny(v int, set []int) bool {
	for _, w := range set {
		if g.Conflicting(v, w) {
			return true
		}
	}
	return false
}

// Pairs returns all conflicting pairs with i < j, sorted lexicographically.
func (g *Graph) Pairs() [][2]int {
	out := make([][2]int, 0, g.edges)
	for i := 0; i < g.n; i++ {
		for _, j := range g.adj[i] {
			if i < j {
				out = append(out, [2]int{i, j})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// FromPairs builds a graph over n events from explicit conflicting pairs:
// the graph Add would build from them in order (self-pairs and repeats
// skipped, out-of-range indices panic), with every adjacency list carved
// from one block. A first pass sets the bits and counts each event's
// degree, marking the pairs it kept; a second fills the lists in pair
// order.
func FromPairs(n int, pairs [][2]int) *Graph {
	g := New(n)
	kept := make([]uint64, (len(pairs)+63)/64)
	deg := make([]int, n)
	for k, p := range pairs {
		i, j := p[0], p[1]
		if i < 0 || j < 0 || i >= n || j >= n {
			panic(fmt.Sprintf("conflict: pair (%d, %d) out of range [0, %d)", i, j, n))
		}
		if i == j || g.Conflicting(i, j) {
			continue
		}
		g.bits[g.bit(i, j)/64] |= 1 << (g.bit(i, j) % 64)
		g.bits[g.bit(j, i)/64] |= 1 << (g.bit(j, i) % 64)
		kept[k/64] |= 1 << (k % 64)
		deg[i]++
		deg[j]++
		g.edges++
	}
	block := make([]int, 2*g.edges)
	start := 0
	for i, d := range deg {
		if d > 0 {
			g.adj[i] = block[start : start : start+d]
		}
		start += d
	}
	for k, p := range pairs {
		if kept[k/64]&(1<<(k%64)) != 0 {
			g.adj[p[0]] = append(g.adj[p[0]], p[1])
			g.adj[p[1]] = append(g.adj[p[1]], p[0])
		}
	}
	return g
}

// Random builds a graph over n events whose density is as close as possible
// to ratio ∈ [0, 1]: exactly round(ratio·n·(n−1)/2) uniformly-chosen pairs.
// This is how the paper's evaluation (TABLES II and III) generates CF.
func Random(rng *rand.Rand, n int, ratio float64) *Graph {
	if ratio < 0 || ratio > 1 {
		panic(fmt.Sprintf("conflict: ratio %v outside [0, 1]", ratio))
	}
	total := n * (n - 1) / 2
	k := int(ratio*float64(total) + 0.5)
	g := New(n)
	for _, p := range randx.SamplePairs(rng, n, k) {
		g.Add(p[0], p[1])
	}
	return g
}
