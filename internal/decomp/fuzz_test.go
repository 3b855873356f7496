package decomp

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
)

// FuzzDecomposedSolve runs a small random clustered instance through Run's
// decomposed path with one of greedy, mincostflow, random-v or exact (exact
// only when |V|·|U| <= 40) and checks three properties:
//
//   - the matching is feasible and at most the Corollary 1 bound;
//   - decomposed exact equals monolithic exact within 1e-9;
//   - a full-scope RebalanceScoped from an empty arrangement adopts exactly
//     Run's pairs, in the same order — both go through the one merge.
//
// Run it with: go test -run '^$' -fuzz FuzzDecomposedSolve -fuzztime 20s ./internal/decomp
func FuzzDecomposedSolve(f *testing.F) {
	f.Add(uint8(5), uint8(8), uint8(2), uint8(3), uint8(2), uint8(40), uint8(0), int64(1), uint8(3))
	f.Add(uint8(12), uint8(40), uint8(3), uint8(5), uint8(2), uint8(25), uint8(0), int64(7), uint8(1))
	f.Add(uint8(10), uint8(30), uint8(2), uint8(4), uint8(3), uint8(30), uint8(20), int64(-3), uint8(0))
	f.Add(uint8(6), uint8(20), uint8(3), uint8(2), uint8(1), uint8(60), uint8(0), int64(11), uint8(2))
	algos := []string{"greedy", "mincostflow", "random-v", "exact"}
	f.Fuzz(func(t *testing.T, nv, nu, k, evCap, usCap, cf, bridge uint8, seed int64, algoIdx uint8) {
		cfg := dataset.ClusteredConfig{
			NumEvents: 1 + int(nv)%12, NumUsers: 1 + int(nu)%40,
			Communities: 1 + int(k)%4, BlockDim: 2,
			EventCapMax: 1 + int(evCap)%5, UserCapMax: 1 + int(usCap)%3,
			CFRatio: float64(cf%101) / 100, BridgeFrac: float64(bridge%101) / 100,
			Seed: seed,
		}
		in, err := cfg.Generate()
		if err != nil {
			t.Skip(err)
		}
		algo := algos[int(algoIdx)%len(algos)]
		if algo == "exact" && cfg.NumEvents*cfg.NumUsers > 40 {
			algo = "greedy"
		}
		ctx := context.Background()
		res, err := Run(ctx, in, Spec{Algo: algo, Seed: seed, Decompose: true}, Env{})
		if err != nil {
			t.Fatalf("%s %+v: %v", algo, cfg, err)
		}
		if bound := core.RelaxedUpperBound(in); res.M.MaxSum() > bound+1e-9*math.Max(1, bound) {
			t.Fatalf("%s %+v: MaxSum %v above the Corollary 1 bound %v", algo, cfg, res.M.MaxSum(), bound)
		}
		if algo == "exact" {
			whole, _, err := core.ExactOpts(in, core.ExactOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !closeRel(res.M.MaxSum(), whole.MaxSum()) {
				t.Fatalf("%+v: decomposed exact %v, monolithic %v", cfg, res.M.MaxSum(), whole.MaxSum())
			}
		}
		arr, err := core.RestoreArranger(in, core.NewMatching())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RebalanceScoped(ctx, arr, algo, nil, nil, true, Options{Seed: seed}); err != nil {
			t.Fatalf("%s %+v: rebalance: %v", algo, cfg, err)
		}
		if got := arr.Matching().Pairs(); !reflect.DeepEqual(got, res.M.Pairs()) && (len(got) != 0 || res.M.Size() != 0) {
			t.Fatalf("%s %+v: full rebalance adopted %v, Run returned %v", algo, cfg, got, res.M.Pairs())
		}
	})
}
