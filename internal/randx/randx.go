// Package randx provides deterministic random sampling helpers used by the
// synthetic workload generators.
//
// The paper's evaluation (TABLE III) draws attribute values from Uniform,
// Normal, and Zipf laws and capacities from Uniform and Normal laws, always
// converted to integers. All samplers here are driven by an explicit
// *rand.Rand so experiments are reproducible from a single seed.
package randx

import (
	"fmt"
	"math"
	"math/rand"
)

// Source returns a new deterministic PRNG for the given seed.
func Source(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Sub derives an independent child PRNG from parent. Drawing the child seed
// from the parent keeps a whole experiment reproducible from one root seed
// while letting each generated entity consume a private stream.
func Sub(parent *rand.Rand) *rand.Rand {
	return rand.New(rand.NewSource(parent.Int63()))
}

// Uniform samples uniformly from [lo, hi].
func Uniform(rng *rand.Rand, lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("randx: empty range [%v, %v]", lo, hi))
	}
	return lo + rng.Float64()*(hi-lo)
}

// UniformInt samples an integer uniformly from [lo, hi] inclusive.
func UniformInt(rng *rand.Rand, lo, hi int) int {
	if hi < lo {
		panic(fmt.Sprintf("randx: empty range [%d, %d]", lo, hi))
	}
	return lo + rng.Intn(hi-lo+1)
}

// Normal samples from N(mu, sigma²) truncated to [lo, hi] by resampling.
// After a bounded number of attempts it falls back to clamping, so the
// function always terminates even for pathological parameters.
func Normal(rng *rand.Rand, mu, sigma, lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("randx: empty range [%v, %v]", lo, hi))
	}
	for i := 0; i < 64; i++ {
		x := rng.NormFloat64()*sigma + mu
		if x >= lo && x <= hi {
			return x
		}
	}
	x := rng.NormFloat64()*sigma + mu
	return math.Min(hi, math.Max(lo, x))
}

// NormalInt samples Normal(mu, sigma) truncated to [lo, hi] and rounds to the
// nearest integer. The paper converts all generated capacities to integers.
func NormalInt(rng *rand.Rand, mu, sigma float64, lo, hi int) int {
	x := Normal(rng, mu, sigma, float64(lo), float64(hi))
	n := int(math.Round(x))
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}

// Zipf samples ranks from a Zipf law with exponent s over {0, 1, ..., n-1}
// and maps them onto [0, maxV]. Rank 0 is the most probable value. The
// paper's synthetic attributes use Zipf with exponent 1.3 over [0, T].
type Zipf struct {
	z    *rand.Zipf
	n    uint64
	maxV float64
}

// NewZipf builds a Zipf sampler with exponent s (> 1) over n buckets mapped
// to [0, maxV].
func NewZipf(rng *rand.Rand, s float64, n uint64, maxV float64) *Zipf {
	if s <= 1 {
		panic(fmt.Sprintf("randx: Zipf exponent must be > 1, got %v", s))
	}
	if n < 2 {
		panic(fmt.Sprintf("randx: Zipf needs at least 2 buckets, got %d", n))
	}
	if maxV <= 0 {
		panic(fmt.Sprintf("randx: non-positive Zipf range %v", maxV))
	}
	return &Zipf{
		z:    rand.NewZipf(rng, s, 1, n-1),
		n:    n,
		maxV: maxV,
	}
}

// Next returns the next Zipf-distributed value in [0, maxV].
func (z *Zipf) Next() float64 {
	rank := z.z.Uint64()
	return float64(rank) / float64(z.n-1) * z.maxV
}

// SamplePairs draws k distinct unordered pairs {i, j}, i != j, from [0, n)
// uniformly at random. It panics if k exceeds the n·(n-1)/2 available pairs.
// Used to select random conflicting event pairs at a target |CF| density.
func SamplePairs(rng *rand.Rand, n, k int) [][2]int {
	total := n * (n - 1) / 2
	if k < 0 || k > total {
		panic(fmt.Sprintf("randx: cannot sample %d pairs from %d items (%d pairs exist)", k, n, total))
	}
	if k == 0 {
		return nil
	}
	// For sparse requests, rejection-sample into a set; for dense requests,
	// enumerate all pairs and shuffle. The crossover keeps both paths fast.
	if k*3 < total {
		seen := make(map[[2]int]struct{}, k)
		out := make([][2]int, 0, k)
		for len(out) < k {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			if i > j {
				i, j = j, i
			}
			key := [2]int{i, j}
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			out = append(out, key)
		}
		return out
	}
	all := make([][2]int, 0, total)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			all = append(all, [2]int{i, j})
		}
	}
	rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	return all[:k]
}
