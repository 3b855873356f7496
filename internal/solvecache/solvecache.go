// Package solvecache provides a content-addressed, bounded-LRU cache for
// solve results. Keys are SHA-256 digests of the canonical instance content
// — capacities, attribute bits, conflict pairs, explicit matrix entries —
// plus everything that changes the answer: algorithm, seed, similarity
// identity, decompose flags, diagnostics mode. Two requests with the same
// key are guaranteed the same bit-for-bit solver output (solvers are
// deterministic functions of exactly these inputs), so a hit can serve the
// memoized result without running anything.
//
// Instances whose similarity is an opaque callback (no matrix, no SimID)
// are uncacheable: the key cannot prove the callback unchanged.
package solvecache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/obs"
)

// Key addresses one cached solve result.
type Key [sha256.Size]byte

// KeySpec carries the non-content solve parameters that select the answer.
type KeySpec struct {
	Algo      string
	Seed      int64
	SimID     string // canonical similarity identity, e.g. "euclidean/4/100"; "" means uncacheable unless the instance has a matrix
	Decompose bool
	Diag      bool
	NodeLimit int64
	// Approximate-sharding parameters (internal/partition). They change the
	// merged matching, so they must key separately from a plain decomposed
	// solve: ApproxShard false means the zero-valued trio hashes as "off".
	ApproxShard      bool
	ShardMaxArea     int64
	ShardStrategy    string
	ShardDriftBudget float64
}

// InstanceKey hashes the instance content under the spec. ok is false when
// the instance is uncacheable (callback similarity with no SimID).
func InstanceKey(in *core.Instance, spec KeySpec) (Key, bool) {
	if in == nil || (in.Matrix == nil && spec.SimID == "") {
		return Key{}, false
	}
	h := sha256.New()
	var buf [8]byte
	writeInt := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	writeFloat := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeInt(int64(len(s)))
		h.Write([]byte(s))
	}
	writeStr("geacc-solve-v2")
	writeStr(spec.Algo)
	writeStr(spec.SimID)
	writeInt(spec.Seed)
	writeInt(spec.NodeLimit)
	var flags int64
	if spec.Decompose {
		flags |= 1
	}
	if spec.Diag {
		flags |= 2
	}
	if spec.ApproxShard {
		flags |= 4
	}
	writeInt(flags)
	writeInt(spec.ShardMaxArea)
	writeStr(spec.ShardStrategy)
	writeFloat(spec.ShardDriftBudget)

	writeInt(int64(in.NumEvents()))
	writeInt(int64(in.NumUsers()))
	for _, e := range in.Events {
		writeInt(int64(e.Cap))
		writeInt(int64(len(e.Attrs)))
		for _, a := range e.Attrs {
			writeFloat(a)
		}
	}
	for _, u := range in.Users {
		writeInt(int64(u.Cap))
		writeInt(int64(len(u.Attrs)))
		for _, a := range u.Attrs {
			writeFloat(a)
		}
	}
	if in.Conflicts != nil {
		pairs := in.Conflicts.Pairs() // sorted, deterministic
		writeInt(int64(len(pairs)))
		for _, p := range pairs {
			writeInt(int64(p[0]))
			writeInt(int64(p[1]))
		}
	} else {
		writeInt(-1)
	}
	if in.Matrix != nil {
		writeInt(int64(len(in.Matrix)))
		for _, row := range in.Matrix {
			writeInt(int64(len(row)))
			for _, s := range row {
				writeFloat(s)
			}
		}
	} else {
		writeInt(-1)
	}
	var k Key
	h.Sum(k[:0])
	return k, true
}

// Global reuse counters, aggregated across every cache in the process; the
// full catalog lives in docs/OBSERVABILITY.md.
var (
	cacheHits      = obs.Default().Counter("geacc_solve_cache_hits_total")
	cacheMisses    = obs.Default().Counter("geacc_solve_cache_misses_total")
	cacheEvictions = obs.Default().Counter("geacc_solve_cache_evictions_total")
)

// Stats is a point-in-time snapshot of one cache's reuse counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	MaxSize   int   `json:"max_size"`
}

// Cache is a bounded LRU from Key to an opaque memoized result. All
// methods are safe for concurrent use and safe on a nil receiver (a nil
// *Cache behaves as permanently empty and disabled).
type Cache struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recent
	items     map[Key]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type entry struct {
	key Key
	val any
}

// New returns a Cache bounded to max entries; max <= 0 returns nil (the
// disabled cache).
func New(max int) *Cache {
	if max <= 0 {
		return nil
	}
	return &Cache{max: max, ll: list.New(), items: make(map[Key]*list.Element)}
}

// Get returns the memoized value for k, marking it most recently used.
func (c *Cache) Get(k Key) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		cacheMisses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	cacheHits.Inc()
	return el.Value.(*entry).val, true
}

// Put stores v under k, evicting the least recently used entry when full.
func (c *Cache) Put(k Key, v any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*entry).val = v
		c.ll.MoveToFront(el)
		return
	}
	for c.ll.Len() >= c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry).key)
		c.evictions++
		cacheEvictions.Inc()
	}
	c.items[k] = c.ll.PushFront(&entry{key: k, val: v})
}

// Stats snapshots the cache's counters. Zero-valued on a nil cache.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		MaxSize:   c.max,
	}
}
