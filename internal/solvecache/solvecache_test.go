package solvecache

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/sim"
)

const testMaxT = 100.0

func randInstance(rng *rand.Rand, nv, nu, d int) *core.Instance {
	events := make([]core.Event, nv)
	for i := range events {
		events[i] = core.Event{Attrs: randVec(rng, d), Cap: 1 + rng.Intn(3)}
	}
	users := make([]core.User, nu)
	for i := range users {
		users[i] = core.User{Attrs: randVec(rng, d), Cap: 1 + rng.Intn(3)}
	}
	cf := conflict.Random(rng, nv, 0.25)
	in, err := core.NewInstance(events, users, cf, sim.Euclidean(d, testMaxT))
	if err != nil {
		panic(err)
	}
	return in
}

func randVec(rng *rand.Rand, d int) sim.Vector {
	v := make(sim.Vector, d)
	for i := range v {
		v[i] = rng.Float64() * testMaxT
	}
	return v
}

// TestInstanceKeyContentSensitivity: identical content hashes identically
// regardless of object identity; every content or spec perturbation moves
// the key.
func TestInstanceKeyContentSensitivity(t *testing.T) {
	spec := KeySpec{Algo: "greedy", Seed: 1, SimID: "euclidean/4/100"}
	a := randInstance(rand.New(rand.NewSource(5)), 6, 12, 4)
	b := randInstance(rand.New(rand.NewSource(5)), 6, 12, 4) // separately built, same bytes
	ka, ok := InstanceKey(a, spec)
	if !ok {
		t.Fatal("instance with SimID should be cacheable")
	}
	kb, _ := InstanceKey(b, spec)
	if ka != kb {
		t.Fatal("identical content must produce identical keys")
	}

	seen := map[Key]string{ka: "base"}
	check := func(name string, in *core.Instance, sp KeySpec) {
		k, ok := InstanceKey(in, sp)
		if !ok {
			t.Fatalf("%s: unexpectedly uncacheable", name)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("%s collides with %s", name, prev)
		}
		seen[k] = name
	}
	mutate := func(f func(rng *rand.Rand) *core.Instance) *core.Instance {
		return f(rand.New(rand.NewSource(5)))
	}
	check("event-cap", mutate(func(rng *rand.Rand) *core.Instance {
		in := randInstance(rng, 6, 12, 4)
		in.Events[3].Cap++
		return in
	}), spec)
	check("user-attr", mutate(func(rng *rand.Rand) *core.Instance {
		in := randInstance(rng, 6, 12, 4)
		in.Users[7].Attrs[0] += 0.5
		return in
	}), spec)
	check("algo", a, KeySpec{Algo: "mincostflow", Seed: 1, SimID: spec.SimID})
	check("seed", a, KeySpec{Algo: "greedy", Seed: 2, SimID: spec.SimID})
	check("simid", a, KeySpec{Algo: "greedy", Seed: 1, SimID: "cosine/4/0"})
	check("decompose", a, KeySpec{Algo: "greedy", Seed: 1, SimID: spec.SimID, Decompose: true})
	check("diag", a, KeySpec{Algo: "greedy", Seed: 1, SimID: spec.SimID, Diag: true})
	check("nodelimit", a, KeySpec{Algo: "exact", Seed: 1, SimID: spec.SimID, NodeLimit: 100})
	shard := KeySpec{Algo: "greedy", Seed: 1, SimID: spec.SimID, Decompose: true,
		ApproxShard: true, ShardMaxArea: 20000, ShardStrategy: "modularity", ShardDriftBudget: 0.01}
	check("approx-shard", a, shard)
	maxArea := shard
	maxArea.ShardMaxArea = 5000
	check("shard-max-area", a, maxArea)
	strategy := shard
	strategy.ShardStrategy = "bfs"
	check("shard-strategy", a, strategy)
	budget := shard
	budget.ShardDriftBudget = 0.05
	check("shard-drift-budget", a, budget)
}

func TestInstanceKeyUncacheable(t *testing.T) {
	in := randInstance(rand.New(rand.NewSource(1)), 3, 5, 4)
	if _, ok := InstanceKey(in, KeySpec{Algo: "greedy"}); ok {
		t.Fatal("callback similarity without SimID must be uncacheable")
	}
	if _, ok := InstanceKey(nil, KeySpec{Algo: "greedy", SimID: "x"}); ok {
		t.Fatal("nil instance must be uncacheable")
	}
	// A matrix instance is self-describing: cacheable with no SimID.
	events := []core.Event{{Cap: 1}, {Cap: 1}}
	users := []core.User{{Cap: 1}}
	m, err := core.NewMatrixInstance(events, users, conflict.New(2), [][]float64{{0.5}, {0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := InstanceKey(m, KeySpec{Algo: "greedy"}); !ok {
		t.Fatal("matrix instance must be cacheable without SimID")
	}
	// ... and matrix content must move the key.
	m2, _ := core.NewMatrixInstance(events, users, conflict.New(2), [][]float64{{0.5}, {0.26}})
	k1, _ := InstanceKey(m, KeySpec{Algo: "greedy"})
	k2, _ := InstanceKey(m2, KeySpec{Algo: "greedy"})
	if k1 == k2 {
		t.Fatal("matrix entry change must change the key")
	}
}

// TestCachedSolveBitForBit is the satellite property at the package level:
// for every registered algorithm, a memoized matching equals a fresh solve
// of independently rebuilt identical content, bit for bit.
func TestCachedSolveBitForBit(t *testing.T) {
	for _, algo := range core.SolverNames() {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			c := New(16)
			for trial := 0; trial < 8; trial++ {
				seed := int64(100 + trial)
				build := func() *core.Instance {
					return randInstance(rand.New(rand.NewSource(seed)), 5, 9, 4)
				}
				spec := KeySpec{Algo: algo, Seed: 1, SimID: "euclidean/4/100"}
				in1 := build()
				k1, ok := InstanceKey(in1, spec)
				if !ok {
					t.Fatal("cacheable expected")
				}
				m1, err := core.SolveContext(context.Background(), algo, in1, rand.New(rand.NewSource(1)))
				if err != nil {
					t.Fatal(err)
				}
				c.Put(k1, m1)

				in2 := build() // separately constructed, same content
				k2, _ := InstanceKey(in2, spec)
				cached, hit := c.Get(k2)
				if !hit {
					t.Fatal("rebuilt identical content must hit")
				}
				fresh, err := core.SolveContext(context.Background(), algo, in2, rand.New(rand.NewSource(1)))
				if err != nil {
					t.Fatal(err)
				}
				cm := cached.(*core.Matching)
				if cm.MaxSum() != fresh.MaxSum() {
					t.Fatalf("trial %d: cached MaxSum %v != fresh %v", trial, cm.MaxSum(), fresh.MaxSum())
				}
				cp, fp := cm.SortedPairs(), fresh.SortedPairs()
				if len(cp) != len(fp) {
					t.Fatalf("trial %d: cached %d pairs != fresh %d", trial, len(cp), len(fp))
				}
				for i := range cp {
					if cp[i] != fp[i] {
						t.Fatalf("trial %d: pair %d: cached %+v fresh %+v", trial, i, cp[i], fp[i])
					}
				}
			}
		})
	}
}

func TestCacheEvictionUnderPressure(t *testing.T) {
	c := New(4)
	keys := make([]Key, 12)
	for i := range keys {
		keys[i][0] = byte(i)
		c.Put(keys[i], i)
	}
	if n := c.Stats().Entries; n != 4 {
		t.Fatalf("resident %d, want 4", n)
	}
	st := c.Stats()
	if st.Evictions != 8 {
		t.Fatalf("evictions %d, want 8", st.Evictions)
	}
	// Newest four survive; the rest are gone.
	for i := 0; i < 8; i++ {
		if _, ok := c.Get(keys[i]); ok {
			t.Fatalf("key %d should have been evicted", i)
		}
	}
	for i := 8; i < 12; i++ {
		if v, ok := c.Get(keys[i]); !ok || v.(int) != i {
			t.Fatalf("key %d missing after pressure", i)
		}
	}
	// LRU order respects Get recency.
	c.Get(keys[8])
	var extra Key
	extra[0] = 0xFF
	c.Put(extra, "x")
	if _, ok := c.Get(keys[8]); !ok {
		t.Fatal("recently used key 8 must survive the next eviction")
	}
	if _, ok := c.Get(keys[9]); ok {
		t.Fatal("key 9 was LRU and must be evicted")
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	if c != New(0) {
		t.Fatal("New(0) must return the nil (disabled) cache")
	}
	var k Key
	c.Put(k, 1)
	if _, ok := c.Get(k); ok {
		t.Fatal("nil cache must never hit")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", st)
	}
}

// TestSolveCacheRace hammers one cache from many goroutines; run under
// -race via the Makefile RACE_PKGS matrix.
func TestSolveCacheRace(t *testing.T) {
	c := New(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				var k Key
				k[0] = byte(rng.Intn(16))
				if _, ok := c.Get(k); !ok {
					c.Put(k, w*1000+i)
				}
				if i%50 == 0 {
					_ = c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
}
