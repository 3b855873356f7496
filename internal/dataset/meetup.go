package dataset

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/randx"
	"github.com/ebsnlab/geacc/internal/sim"
)

// The paper's real dataset is the Meetup crawl of Liu et al. (KDD'12),
// which is not redistributable. This simulator reproduces the statistics
// the paper reports for it (TABLE II) and its preprocessing (Section V):
//
//   - three cities — Vancouver (225 events, 2012 users), Auckland (37, 569),
//     Singapore (87, 1500);
//   - 20 merged tags as attribute dimensions;
//   - each user/event carries a handful of raw tags drawn from a Zipf-like
//     popularity law with a city-specific topic skew (users in one city
//     cluster around local interests);
//   - attribute value = (#raw tags mapping to the merged tag) / (total raw
//     tags of the entity), i.e. normalized tag counts in [0, 1];
//   - capacities and conflicts are generated, exactly as in the paper,
//     because the crawl carries neither: capacities Uniform [1,50]/[1,4] or
//     Normal(25,12.5)/(2,1), conflict pairs sampled at a target ratio.
//
// Similarity uses the paper's Equation 1 with d = 20, T = 1.

// MeetupTagCount is the number of merged tags (attribute dimensionality):
// the 20 "most popular tags" the paper keeps after merging synonyms, in
// attribute order outdoor, tech, social, sports, music, business,
// language, food, arts, health, games, books, travel, photography, dance,
// movies, parenting, spirituality, pets, education.
const MeetupTagCount = 20

// City describes one extracted city of TABLE II.
type City struct {
	Name      string
	NumEvents int
	NumUsers  int
}

// Cities lists the paper's three extracted cities.
var Cities = []City{
	{Name: "vancouver", NumEvents: 225, NumUsers: 2012},
	{Name: "auckland", NumEvents: 37, NumUsers: 569},
	{Name: "singapore", NumEvents: 87, NumUsers: 1500},
}

// CityByName finds a city case-insensitively.
func CityByName(name string) (City, error) {
	for _, c := range Cities {
		if strings.EqualFold(c.Name, name) {
			return c, nil
		}
	}
	return City{}, fmt.Errorf("dataset: unknown city %q (valid: vancouver, auckland, singapore)", name)
}

// MeetupConfig parameterizes the Meetup simulator.
type MeetupConfig struct {
	// City selects the TABLE II city ("vancouver", "auckland", "singapore").
	City string
	// CapDist draws capacities: Uniform ([1,50] events, [1,4] users) or
	// Normal (25±12.5, 2±1), per TABLE II.
	CapDist Distribution
	// CFRatio is the conflict-set density, swept over {0, .25, .5, .75, 1}
	// in the paper's real-data experiments.
	CFRatio float64
	Seed    int64
}

// Generate builds the simulated city instance.
func (c MeetupConfig) Generate() (*core.Instance, error) {
	city, err := CityByName(c.City)
	if err != nil {
		return nil, err
	}
	if c.CapDist != Uniform && c.CapDist != Normal {
		return nil, fmt.Errorf("dataset: meetup capacities use Uniform or Normal, got %q", c.CapDist)
	}
	if c.CFRatio < 0 || c.CFRatio > 1 {
		return nil, fmt.Errorf("dataset: conflict ratio %v outside [0, 1]", c.CFRatio)
	}
	rng := randx.Source(c.Seed)
	skew := cityTagSkew(randx.Sub(rng))
	attrRng := randx.Sub(rng)
	capRng := randx.Sub(rng)
	cfRng := randx.Sub(rng)

	events := make([]core.Event, city.NumEvents)
	for i := range events {
		events[i] = core.Event{
			Attrs: tagVector(attrRng, skew),
			Cap:   c.capacity(capRng, 50, 25, 12.5),
		}
	}
	users := make([]core.User, city.NumUsers)
	for i := range users {
		users[i] = core.User{
			Attrs: tagVector(attrRng, skew),
			Cap:   c.capacity(capRng, 4, 2, 1),
		}
	}
	cf := conflict.Random(cfRng, city.NumEvents, c.CFRatio)
	return core.NewInstance(events, users, cf, sim.Euclidean(MeetupTagCount, 1))
}

func (c MeetupConfig) capacity(rng *rand.Rand, max int, mu, sigma float64) int {
	if c.CapDist == Normal {
		return randx.NormalInt(rng, mu, sigma, 1, max)
	}
	return randx.UniformInt(rng, 1, max)
}

// cityTagSkew builds the city's tag popularity: a global Zipf-ish rank decay
// modulated by city-specific multipliers, normalized to a distribution.
func cityTagSkew(rng *rand.Rand) []float64 {
	weights := make([]float64, MeetupTagCount)
	var total float64
	for i := range weights {
		// Rank decay ~ 1/(rank+1): popular tags dominate, as observed for
		// user-generated tags. The multiplier in [0.25, 4] makes each
		// city's interest profile distinct.
		base := 1.0 / float64(i+1)
		mult := 0.25 + 3.75*rng.Float64()
		weights[i] = base * mult
		total += weights[i]
	}
	for i := range weights {
		weights[i] /= total
	}
	return weights
}

// tagVector simulates one entity's preprocessing of Section V: draw a
// handful of raw tags from the city's tag distribution and normalize counts
// by the number of raw tags.
func tagVector(rng *rand.Rand, skew []float64) sim.Vector {
	numTags := 3 + rng.Intn(10) // entities carry 3-12 raw tags
	counts := make([]int, MeetupTagCount)
	for i := 0; i < numTags; i++ {
		counts[sampleIndex(rng, skew)]++
	}
	v := make(sim.Vector, MeetupTagCount)
	for i, n := range counts {
		v[i] = float64(n) / float64(numTags)
	}
	return v
}

// sampleIndex draws an index from a normalized weight vector.
func sampleIndex(rng *rand.Rand, weights []float64) int {
	x := rng.Float64()
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
