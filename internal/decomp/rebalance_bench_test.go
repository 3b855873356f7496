package decomp

import (
	"context"
	"math/rand"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/sim"
)

// BenchmarkRebalanceDirty times one dirty mincostflow rebalance of a live
// instance the shape of the service benchmark's: cosine similarity over 8
// disjoint 8-wide community blocks, conflicts only inside a community, 60
// events and about 900 users. Before each timed rebalance (timer stopped)
// two users arrive and one leaves, so three nodes are dirty and the kept
// union graph has two users to extend by; every 64 rebalances the arranger
// is rebuilt from the starting snapshot so the instance does not grow.
//
// Run it with: go test -run '^$' -bench RebalanceDirty -benchmem ./internal/decomp
func BenchmarkRebalanceDirty(b *testing.B) {
	const (
		communities = 8
		blockDim    = 8
		events      = 60
		users       = 900
	)
	rng := rand.New(rand.NewSource(1))
	attrs := func(k int) sim.Vector {
		v := make(sim.Vector, communities*blockDim)
		for i := k * blockDim; i < (k+1)*blockDim; i++ {
			v[i] = 0.1 + 0.9*rng.Float64()
		}
		return v
	}
	arr, err := core.NewArranger(sim.Cosine())
	if err != nil {
		b.Fatal(err)
	}
	for v := 0; v < events; v++ {
		var cf []int
		for w := v % communities; w < v; w += communities {
			if rng.Float64() < 0.25 {
				cf = append(cf, w)
			}
		}
		if _, err := arr.AddEvent(core.Event{Attrs: attrs(v % communities), Cap: 20 + rng.Intn(11)}, cf); err != nil {
			b.Fatal(err)
		}
	}
	for u := 0; u < users; u++ {
		if _, err := arr.AddUser(core.User{Attrs: attrs(u % communities), Cap: 1 + rng.Intn(4)}); err != nil {
			b.Fatal(err)
		}
	}
	start, startM, err := arr.Snapshot()
	if err != nil {
		b.Fatal(err)
	}

	ctx := context.Background()
	var warm *core.WarmCache
	// reset rebuilds the arranger and runs the full rebalance that fills
	// the warm-flow cache and the kept union graph.
	reset := func() {
		if arr, err = core.RestoreArranger(start, startM); err != nil {
			b.Fatal(err)
		}
		warm = core.NewWarmCache(0)
		if _, err := RebalanceScoped(ctx, arr, "mincostflow", nil, nil, true, Options{WarmCache: warm}); err != nil {
			b.Fatal(err)
		}
	}
	reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%64 == 63 {
			reset()
		}
		var dirtyU []int
		for j := 0; j < 2; j++ {
			u, err := arr.AddUser(core.User{Attrs: attrs(rng.Intn(communities)), Cap: 1 + rng.Intn(4)})
			if err != nil {
				b.Fatal(err)
			}
			dirtyU = append(dirtyU, u)
		}
		gone := rng.Intn(users)
		if err := arr.RemoveUser(gone); err != nil {
			b.Fatal(err)
		}
		dirtyU = append([]int{gone}, dirtyU...)
		b.StartTimer()
		if _, err := RebalanceScoped(ctx, arr, "mincostflow", nil, dirtyU, false, Options{WarmCache: warm}); err != nil {
			b.Fatal(err)
		}
	}
}
