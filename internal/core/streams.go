package core

import (
	"sort"

	"github.com/ebsnlab/geacc/internal/knn"
	"github.com/ebsnlab/geacc/internal/sim"
)

// IndexKind selects the nearest-neighbor index Greedy-GEACC uses for its
// "next feasible unvisited NN" queries. The paper leaves the index open
// (σ(S) in its complexity analysis, citing iDistance and the VA-File);
// these options enable the corresponding ablation benchmarks.
type IndexKind int

const (
	// IndexChunked is the default: lazy top-k linear selection with
	// geometric refill. Robust in any dimension and for any similarity.
	IndexChunked IndexKind = iota
	// IndexSorted fully sorts each node's candidate list on first use.
	IndexSorted
	// IndexKDTree uses best-first kd-tree traversal (Euclidean-style
	// similarities only).
	IndexKDTree
	// IndexIDistance uses the iDistance-style one-dimensional mapping
	// (Euclidean-style similarities only).
	IndexIDistance
	// IndexVAFile uses the vector-approximation file (Euclidean-style
	// similarities only).
	IndexVAFile
	// IndexParallel is the Chunked strategy with parallel refills over
	// every row: bit-identical matchings. On 100×1000 TABLE III and a
	// 2-vCPU container it measured 55–64 ms per solve, Chunked 21–29 ms.
	IndexParallel
	// IndexLSH is APPROXIMATE (p-stable locality-sensitive hashing): the
	// NN streams may miss true neighbors, so the greedy matching can be
	// worse than with the exact indexes — the one index kind that trades
	// arrangement quality for query speed. Effective in low-dimensional
	// attribute spaces; on high-dimensional near-uniform data (e.g.
	// TABLE III's d = 20) recall degenerates and the exact indexes should
	// be preferred. Euclidean-style similarities only.
	IndexLSH
)

// String returns the benchmark-friendly name of the index kind.
func (k IndexKind) String() string {
	switch k {
	case IndexChunked:
		return "chunked"
	case IndexSorted:
		return "sorted"
	case IndexKDTree:
		return "kdtree"
	case IndexIDistance:
		return "idistance"
	case IndexVAFile:
		return "vafile"
	case IndexParallel:
		return "parallel"
	case IndexLSH:
		return "lsh"
	default:
		return "unknown"
	}
}

// neighborSource hands out per-node similarity-descending neighbor streams:
// event v streams over users, user u streams over events.
type neighborSource interface {
	eventStream(v int) knn.Stream
	userStream(u int) knn.Stream
}

// newNeighborSource picks the stream implementation for the instance:
// explicit-matrix instances sort matrix rows/columns; vector instances build
// the requested knn index over each side; only Chunked uses the live sets.
func newNeighborSource(in *Instance, kind IndexKind, chunkSize int, liveEvents, liveUsers *knn.Live) neighborSource {
	if in.Matrix != nil {
		return &matrixSource{in: in}
	}
	// Reuse the instance's flat kernels when they are fresh; stale or absent
	// kernels (Instance literals, truncated bench copies) get a fresh kernel
	// built from the current attribute slices.
	build := func(k *sim.Kernel, data func() []sim.Vector, live *knn.Live) knn.Index {
		if k == nil {
			k = sim.NewKernel(data(), in.SimFunc)
		}
		switch kind {
		case IndexSorted:
			return knn.NewSortedKernel(k)
		case IndexKDTree:
			return knn.NewKDTree(k.Vectors(), in.SimFunc)
		case IndexIDistance:
			m := k.Len() / 64
			if m < 4 {
				m = 4
			}
			return knn.NewIDistance(k.Vectors(), in.SimFunc, m)
		case IndexVAFile:
			return knn.NewVAFileKernel(k, 6)
		case IndexParallel:
			return knn.NewParallelKernel(k, chunkSize, 0)
		case IndexLSH:
			return knn.NewLSHKernel(k, 8, 4, 1)
		default:
			return knn.NewChunkedKernel(k, chunkSize, live)
		}
	}
	return &vectorSource{
		in:     in,
		users:  build(in.kernelOverUsers(), in.UserAttrs, liveUsers),
		events: build(in.kernelOverEvents(), in.EventAttrs, liveEvents),
	}
}

type vectorSource struct {
	in     *Instance
	users  knn.Index // queried with event attributes
	events knn.Index // queried with user attributes
}

func (s *vectorSource) eventStream(v int) knn.Stream {
	return s.users.Stream(s.in.Events[v].Attrs)
}

func (s *vectorSource) userStream(u int) knn.Stream {
	return s.events.Stream(s.in.Users[u].Attrs)
}

type matrixSource struct {
	in *Instance
}

func (s *matrixSource) eventStream(v int) knn.Stream {
	row := s.in.Matrix[v]
	pairs := make([]knn.Pair, 0, len(row))
	for u, sv := range row {
		if sv > 0 {
			pairs = append(pairs, knn.Pair{ID: u, S: sv})
		}
	}
	return sortedPairStream(pairs)
}

func (s *matrixSource) userStream(u int) knn.Stream {
	pairs := make([]knn.Pair, 0, len(s.in.Matrix))
	for v := range s.in.Matrix {
		if sv := s.in.Matrix[v][u]; sv > 0 {
			pairs = append(pairs, knn.Pair{ID: v, S: sv})
		}
	}
	return sortedPairStream(pairs)
}

func sortedPairStream(pairs []knn.Pair) knn.Stream {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].S != pairs[j].S {
			return pairs[i].S > pairs[j].S
		}
		return pairs[i].ID < pairs[j].ID
	})
	return &pairSliceStream{pairs: pairs}
}

type pairSliceStream struct {
	pairs []knn.Pair
	pos   int
}

func (s *pairSliceStream) Next() (int, float64, bool) {
	if s.pos >= len(s.pairs) {
		return 0, 0, false
	}
	p := s.pairs[s.pos]
	s.pos++
	return p.ID, p.S, true
}
