package dataset

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
)

func TestSyntheticDefaults(t *testing.T) {
	c := DefaultSynthetic()
	in, err := c.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if in.NumEvents() != 100 || in.NumUsers() != 1000 {
		t.Fatalf("sizes %d, %d", in.NumEvents(), in.NumUsers())
	}
	if len(in.Events[0].Attrs) != 20 {
		t.Fatalf("d = %d", len(in.Events[0].Attrs))
	}
	for _, e := range in.Events {
		if e.Cap < 1 || e.Cap > 50 {
			t.Fatalf("event capacity %d outside [1, 50]", e.Cap)
		}
		if err := e.Attrs.Validate(10000); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range in.Users {
		if u.Cap < 1 || u.Cap > 4 {
			t.Fatalf("user capacity %d outside [1, 4]", u.Cap)
		}
	}
	if got := in.Conflicts.Density(); math.Abs(got-0.25) > 0.01 {
		t.Fatalf("conflict density %v, want ~0.25", got)
	}
}

func TestSyntheticDeterministicPerSeed(t *testing.T) {
	c := DefaultSynthetic()
	c.NumEvents, c.NumUsers = 10, 30
	a, err := c.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Events {
		for i := range a.Events[v].Attrs {
			if a.Events[v].Attrs[i] != b.Events[v].Attrs[i] {
				t.Fatal("same seed, different attributes")
			}
		}
		if a.Events[v].Cap != b.Events[v].Cap {
			t.Fatal("same seed, different capacities")
		}
	}
	c.Seed = 2
	d, err := c.Generate()
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for v := range a.Events {
		for i := range a.Events[v].Attrs {
			if a.Events[v].Attrs[i] != d.Events[v].Attrs[i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical attributes")
	}
}

func TestSyntheticDistributions(t *testing.T) {
	for _, dist := range []Distribution{Uniform, Normal, Zipf} {
		c := DefaultSynthetic()
		c.NumEvents, c.NumUsers = 30, 100
		c.AttrDist = dist
		in, err := c.Generate()
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		for _, e := range in.Events {
			if err := e.Attrs.Validate(c.MaxT); err != nil {
				t.Fatalf("%s: %v", dist, err)
			}
		}
	}
	// Normal capacities.
	c := DefaultSynthetic()
	c.NumEvents, c.NumUsers = 50, 200
	c.EventCapDist, c.UserCapDist = Normal, Normal
	in, err := c.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var sum int
	for _, e := range in.Events {
		sum += e.Cap
	}
	mean := float64(sum) / float64(len(in.Events))
	if mean < 15 || mean > 35 {
		t.Errorf("normal event capacities mean %v far from 25", mean)
	}
}

func TestSyntheticZipfSkewsLow(t *testing.T) {
	c := DefaultSynthetic()
	c.NumEvents, c.NumUsers = 50, 50
	c.AttrDist = Zipf
	in, err := c.Generate()
	if err != nil {
		t.Fatal(err)
	}
	low, total := 0, 0
	for _, e := range in.Events {
		for _, x := range e.Attrs {
			total++
			if x < c.MaxT/2 {
				low++
			}
		}
	}
	if float64(low)/float64(total) < 0.9 {
		t.Errorf("zipf attributes not skewed: %d/%d below midpoint", low, total)
	}
}

func TestSyntheticValidation(t *testing.T) {
	bad := []func(*SyntheticConfig){
		func(c *SyntheticConfig) { c.NumEvents = 0 },
		func(c *SyntheticConfig) { c.NumUsers = -1 },
		func(c *SyntheticConfig) { c.Dim = 0 },
		func(c *SyntheticConfig) { c.MaxT = 0 },
		func(c *SyntheticConfig) { c.EventCapMax = 0 },
		func(c *SyntheticConfig) { c.UserCapMax = 0 },
		func(c *SyntheticConfig) { c.CFRatio = 1.5 },
		func(c *SyntheticConfig) { c.AttrDist = "lognormal" },
		func(c *SyntheticConfig) { c.AttrDist = Zipf; c.ZipfS = 1.0 },
		func(c *SyntheticConfig) { c.EventCapDist = Zipf },
	}
	for i, mutate := range bad {
		c := DefaultSynthetic()
		mutate(&c)
		if _, err := c.Generate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestMeetupCities(t *testing.T) {
	for _, city := range Cities {
		cfg := MeetupConfig{City: city.Name, CapDist: Uniform, CFRatio: 0.25, Seed: 3}
		in, err := cfg.Generate()
		if err != nil {
			t.Fatalf("%s: %v", city.Name, err)
		}
		if in.NumEvents() != city.NumEvents || in.NumUsers() != city.NumUsers {
			t.Fatalf("%s: got %d/%d, TABLE II says %d/%d",
				city.Name, in.NumEvents(), in.NumUsers(), city.NumEvents, city.NumUsers)
		}
		// Tag vectors: 20 dims, entries in [0,1], each row sums to ~1
		// (normalized tag counts).
		for _, e := range in.Events {
			if len(e.Attrs) != MeetupTagCount {
				t.Fatalf("%s: %d attributes", city.Name, len(e.Attrs))
			}
			var sum float64
			for _, x := range e.Attrs {
				if x < 0 || x > 1 {
					t.Fatalf("%s: tag value %v outside [0,1]", city.Name, x)
				}
				sum += x
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%s: tag vector sums to %v, want 1", city.Name, sum)
			}
		}
	}
}

func TestMeetupCapacitiesMatchTable2(t *testing.T) {
	cfg := DefaultMeetup()
	cfg.City = "vancouver"
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range in.Events {
		if e.Cap < 1 || e.Cap > 50 {
			t.Fatalf("event capacity %d outside [1, 50]", e.Cap)
		}
	}
	for _, u := range in.Users {
		if u.Cap < 1 || u.Cap > 4 {
			t.Fatalf("user capacity %d outside [1, 4]", u.Cap)
		}
	}
	cfg.CapDist = Normal
	if _, err := cfg.Generate(); err != nil {
		t.Fatalf("normal capacities: %v", err)
	}
}

func TestMeetupErrors(t *testing.T) {
	if _, err := (MeetupConfig{City: "atlantis", CapDist: Uniform}).Generate(); err == nil {
		t.Error("unknown city accepted")
	}
	if _, err := (MeetupConfig{City: "auckland", CapDist: Zipf}).Generate(); err == nil {
		t.Error("zipf capacities accepted")
	}
	if _, err := (MeetupConfig{City: "auckland", CapDist: Uniform, CFRatio: 2}).Generate(); err == nil {
		t.Error("bad conflict ratio accepted")
	}
	if _, err := CityByName("AUCKLAND"); err != nil {
		t.Error("city lookup should be case-insensitive")
	}
}

func TestMeetupSimilaritiesNonTrivial(t *testing.T) {
	cfg := DefaultMeetup()
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Sparse tag vectors still must produce a usable similarity spread.
	var min, max = 2.0, -1.0
	for v := 0; v < 10; v++ {
		for u := 0; u < 50; u++ {
			s := in.Similarity(v, u)
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
	}
	if max-min < 0.05 {
		t.Errorf("similarities nearly constant: [%v, %v]", min, max)
	}
}

func TestScheduledGenerator(t *testing.T) {
	c := DefaultScheduled()
	c.NumEvents, c.NumUsers = 40, 200
	in, schedules, err := c.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(schedules) != 40 || in.NumEvents() != 40 {
		t.Fatal("sizes wrong")
	}
	// Conflicts must agree with a from-scratch derivation.
	for i := range schedules {
		if schedules[i].End-schedules[i].Start < c.MinDuration-1e-9 ||
			schedules[i].End-schedules[i].Start > c.MaxDuration+1e-9 {
			t.Fatalf("event %d duration %v outside [%v, %v]",
				i, schedules[i].End-schedules[i].Start, c.MinDuration, c.MaxDuration)
		}
		for j := i + 1; j < len(schedules); j++ {
			want := schedules[i].ConflictsWith(schedules[j], c.TravelSpeed)
			if got := in.Conflicting(i, j); got != want {
				t.Fatalf("conflict (%d,%d) = %v, schedules say %v", i, j, got, want)
			}
		}
	}
	// Overlapping schedules exist at this density, so CF must be non-empty.
	if in.Conflicts.Edges() == 0 {
		t.Error("no conflicts derived from a crowded day")
	}
	// A solver run keeps the instance honest end to end.
	m := core.Greedy(in)
	if err := core.Validate(in, m); err != nil {
		t.Fatal(err)
	}
}

func TestScheduledValidation(t *testing.T) {
	bad := []func(*ScheduledConfig){
		func(c *ScheduledConfig) { c.NumEvents = 0 },
		func(c *ScheduledConfig) { c.Dim = 0 },
		func(c *ScheduledConfig) { c.MinDuration = 0 },
		func(c *ScheduledConfig) { c.MaxDuration = 0.5; c.MinDuration = 1 },
		func(c *ScheduledConfig) { c.DayLength = 1; c.MaxDuration = 3 },
		func(c *ScheduledConfig) { c.TravelSpeed = 0 },
		func(c *ScheduledConfig) { c.EventCapMax = 0 },
	}
	for i, mutate := range bad {
		c := DefaultScheduled()
		mutate(&c)
		if _, _, err := c.Generate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGeneratedInstancesSolvable(t *testing.T) {
	// Small instances from every generator run through every solver.
	sc := DefaultSynthetic()
	sc.NumEvents, sc.NumUsers = 8, 25
	synth, err := sc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	mc := DefaultMeetup()
	meetup, err := mc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	instances := map[string]*core.Instance{"synthetic": synth, "meetup": meetup}
	for name, in := range instances {
		for _, algo := range core.SolverNames() {
			if algo == "exact" && name == "meetup" {
				continue // too large for exact search
			}
			// Bound the exact run; feasibility is what matters here.
			m, _, _, err := core.SolveContextBound(context.Background(), algo, in, rand.New(rand.NewSource(9)), 200000)
			if err != nil && !errors.Is(err, core.ErrNodeLimit) {
				t.Fatalf("%s/%s: %v", name, algo, err)
			}
			if err := core.Validate(in, m); err != nil {
				t.Fatalf("%s/%s: %v", name, algo, err)
			}
		}
	}
}
