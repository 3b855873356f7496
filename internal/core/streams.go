package core

import (
	"context"

	"github.com/ebsnlab/geacc/internal/knn"
	"github.com/ebsnlab/geacc/internal/sim"
)

// IndexKind selects the nearest-neighbor index Greedy-GEACC uses for its
// "next feasible unvisited NN" queries on vector instances. The paper leaves
// the index open (σ(S) in its complexity analysis, citing iDistance and the
// VA-File). Production solves use IndexChunked; IndexSorted is the test
// oracle; IndexIDistance and IndexVAFile serve the index ablation. Every
// kind yields the same matching.
type IndexKind int

const (
	// IndexChunked is the default: lazy top-k linear selection with
	// geometric refill over the nodes that still have capacity. Robust in
	// any dimension and for any similarity.
	IndexChunked IndexKind = iota
	// IndexSorted fully sorts each node's candidate list on first use.
	IndexSorted
	// IndexIDistance uses the iDistance-style one-dimensional mapping
	// (Euclidean-style similarities only).
	IndexIDistance
	// IndexVAFile uses the vector-approximation file (Euclidean-style
	// similarities only).
	IndexVAFile
)

// String returns the benchmark-friendly name of the index kind.
func (k IndexKind) String() string {
	switch k {
	case IndexChunked:
		return "chunked"
	case IndexSorted:
		return "sorted"
	case IndexIDistance:
		return "idistance"
	case IndexVAFile:
		return "vafile"
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
func newNeighborSource(in *Instance, kind IndexKind, liveEvents, liveUsers *knn.Live) neighborSource {
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
		case IndexIDistance:
			m := k.Len() / 64
			if m < 4 {
				m = 4
			}
			return knn.NewIDistance(k.Vectors(), in.SimFunc, m)
		case IndexVAFile:
			return knn.NewVAFileKernel(k, 6)
		default:
			return knn.NewChunkedKernel(k, 0, live)
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

// prime gives every live node its stream before the first pop when both
// indexes are the default Chunked kind: one pass scores each live pair once
// for both sides (knn.PrimeChunked). Other kinds keep creating streams
// lazily.
func (s *vectorSource) prime(ctx context.Context, vs, us []knn.Stream) error {
	users, ok := s.users.(*knn.Chunked)
	events, ok2 := s.events.(*knn.Chunked)
	if !ok || !ok2 {
		return nil
	}
	return knn.PrimeChunked(ctx, users, events, vs, us)
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
	return knn.SortedStream(pairs)
}

func (s *matrixSource) userStream(u int) knn.Stream {
	pairs := make([]knn.Pair, 0, len(s.in.Matrix))
	for v := range s.in.Matrix {
		if sv := s.in.Matrix[v][u]; sv > 0 {
			pairs = append(pairs, knn.Pair{ID: v, S: sv})
		}
	}
	return knn.SortedStream(pairs)
}
