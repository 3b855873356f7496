package mincostflow

import (
	"math"
	"testing"
)

// FuzzSSPA decodes bytes into a small network and checks every SSPA step
// against CycleCanceling and the potential invariant: the cold sweep to
// max flow one AugmentPaths batch at a time. The sweep's flow and cost
// must match the one-path oracle's, and so must those of a second sweep
// that stops at the bound. The seed corpus in
// testdata/fuzz/FuzzSSPA replays under plain `go test`.
func FuzzSSPA(f *testing.F) {
	f.Add([]byte{4, 0, 0, 0, 0, 0, 1, 0x10, 1, 3, 0x12, 0, 2, 0x31, 2, 3, 0x05, 8})
	f.Add([]byte{0x86, 3, 1, 7, 0, 2, 5, 0, 1, 0x2f, 1, 7, 0x03, 0, 2, 0x44, 2, 7, 0x18, 1, 2, 0x00, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		ns, bound, ok := decodeNet(data)
		if !ok {
			return
		}
		sv := NewSolver(ns.build(), ns.s, ns.t)
		checkStep(t, ns, sv, "bootstrap")
		sweepPaths(t, ns, sv, math.Inf(1))
		if maxFlow, _ := ns.oracle(t, math.MaxInt64); sv.TotalFlow() != maxFlow {
			t.Fatalf("stopped at flow %d, max flow is %d", sv.TotalFlow(), maxFlow)
		}
		checkOnePath(t, ns, sv, math.Inf(1))

		sv = NewSolver(ns.build(), ns.s, ns.t)
		sweepPaths(t, ns, sv, bound)
		checkOnePath(t, ns, sv, bound)
	})
}

// decodeNet reads a network of at most 8 nodes and 24 arcs:
//
//	byte 0       node count 2 + b%7; high bit set: negative costs allowed
//	bytes 1..n   per-node cost offsets phi (used when negative costs are on)
//	then triples from, to, c: an arc with capacity 1 + c>>4 % 4 and cost
//	             (c%16 + phi[from] - phi[to]) / 4, so no cycle is negative
//	last byte    the second sweep's cost bound, b%16 / 4
//
// Self-loops are dropped. ok is false when data is too short.
func decodeNet(data []byte) (ns *netSpec, bound float64, ok bool) {
	if len(data) < 2 {
		return nil, 0, false
	}
	n := 2 + int(data[0]%7)
	negative := data[0]&0x80 != 0
	if len(data) < 1+n+1 {
		return nil, 0, false
	}
	phi := make([]float64, n)
	if negative {
		for i := range phi {
			phi[i] = float64(data[1+i] % 8)
		}
	}
	bound = float64(data[len(data)-1]%16) / 4
	ns = &netSpec{n: n, s: 0, t: n - 1, phi: phi}
	body := data[1+n : len(data)-1]
	for i := 0; i+2 < len(body) && len(ns.arcs) < 24; i += 3 {
		from, to, c := int(body[i])%n, int(body[i+1])%n, body[i+2]
		if from == to {
			continue
		}
		cost := (float64(c%16) + phi[from] - phi[to]) / 4
		ns.arcs = append(ns.arcs, arcSpec{from, to, 1 + int64(c>>4%4), cost})
	}
	return ns, bound, true
}

// FuzzNegativeCycle decodes bytes into a network and a seed and holds
// findNegativeCycle to the full Bellman–Ford passes through
// checkCycleSearch:
//
//	byte 0       node count 2 + b%14; bit 0x80: seed from the relaxed
//	             potentials instead of the seed bytes
//	bytes 1..n   per-node seed b%5 / 8 plus a jitter of (b>>4)%3 * 3e-13,
//	             below findNegativeCycle's eps
//	then triples from, to, c: an arc with capacity c>>4 % 3 and cost
//	             (c%9 - 5) / 4; c's high bit adds the reverse arc at the
//	             negated cost, a zero-cost cycle
//
// Quarter-unit costs make exact ties and zero-cost cycles common.
// Self-loops are dropped; at most 48 arcs are read.
func FuzzNegativeCycle(f *testing.F) {
	f.Add([]byte{5, 0, 1, 2, 3, 4, 0, 1, 0x12, 1, 2, 0x13, 2, 0, 0x11, 3, 4, 0x98})
	f.Add([]byte{0x86, 0x10, 0x21, 2, 3, 4, 0, 1, 2, 0x94, 2, 3, 0x25, 3, 1, 0x06, 5, 6, 0x18})
	f.Add([]byte{13, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 0, 14, 0x15, 14, 9, 0x17, 9, 0, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 2 + int(data[0]%14)
		if len(data) < 1+n {
			return
		}
		g := NewGraph(n)
		body := data[1+n:]
		for i := 0; i+2 < len(body) && len(g.to)/2 < 48; i += 3 {
			from, to, c := int(body[i])%n, int(body[i+1])%n, body[i+2]
			if from == to {
				continue
			}
			capa, cost := int64(c>>4%3), float64(int(c%9)-5)/4
			g.AddArc(from, to, capa, cost)
			if c&0x80 != 0 {
				g.AddArc(to, from, capa, -cost)
			}
		}
		g.index(0, n-1)
		for v := range n {
			g.sortArcs(v)
		}
		seed := make([]float64, n)
		if data[0]&0x80 != 0 {
			fullRelax(g, seed)
		}
		for v, b := range data[1 : 1+n] {
			if data[0]&0x80 == 0 {
				seed[v] = float64(b%5) / 8
			}
			seed[v] += float64(b>>4%3) * 3e-13
		}
		checkCycleSearch(t, g, seed)
	})
}
