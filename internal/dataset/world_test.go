package dataset

import (
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
)

func TestWorldGenerateCounts(t *testing.T) {
	w, err := DefaultWorld().Generate()
	if err != nil {
		t.Fatal(err)
	}
	wantEvents, wantUsers := 0, 0
	for _, c := range Cities {
		wantEvents += c.NumEvents
		wantUsers += c.NumUsers
	}
	if len(w.Events) != wantEvents || len(w.Users) != wantUsers {
		t.Fatalf("world has %d/%d entities, want %d/%d",
			len(w.Events), len(w.Users), wantEvents, wantUsers)
	}
	for _, e := range w.Events {
		if e.Cap < 1 || e.Cap > 50 {
			t.Fatalf("event capacity %d", e.Cap)
		}
	}
}

func TestWorldConfigErrors(t *testing.T) {
	c := DefaultWorld()
	c.CitySpread = 0
	if _, err := c.Generate(); err == nil {
		t.Error("zero spread accepted")
	}
	c = DefaultWorld()
	c.CapDist = Zipf
	if _, err := c.Generate(); err == nil {
		t.Error("zipf capacities accepted")
	}
}

func TestExtractCitiesRecoversTable2(t *testing.T) {
	w, err := DefaultWorld().Generate()
	if err != nil {
		t.Fatal(err)
	}
	cities, err := w.ExtractCities(3, 0.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cities) != 3 {
		t.Fatalf("extracted %d cities, want 3", len(cities))
	}
	// City separation (thousands of km) dwarfs the 15 km spread, so the
	// clustering must recover TABLE II's exact per-city counts. Largest
	// first: vancouver (225/2012), singapore (87/1500), auckland (37/569).
	want := [][2]int{{225, 2012}, {87, 1500}, {37, 569}}
	for i, c := range cities {
		got := [2]int{c.Instance.NumEvents(), c.Instance.NumUsers()}
		if got != want[i] {
			t.Fatalf("city %d = %v, want %v", i, got, want[i])
		}
		// Back-references are consistent.
		if len(c.EventIDs) != got[0] || len(c.UserIDs) != got[1] {
			t.Fatalf("city %d id mapping sizes wrong", i)
		}
		if got := density(c.Instance.Conflicts); got < 0.2 || got > 0.3 {
			t.Fatalf("city %d conflict density %v", i, got)
		}
	}
	// Extracted instances must be solvable end to end.
	m := core.Greedy(cities[2].Instance)
	if err := core.Validate(cities[2].Instance, m); err != nil {
		t.Fatal(err)
	}
	if m.Size() == 0 {
		t.Fatal("no assignments in extracted city")
	}
}

func TestExtractCitiesErrors(t *testing.T) {
	w, err := DefaultWorld().Generate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ExtractCities(0, 0.25, 1); err == nil {
		t.Error("zero cities accepted")
	}
	if _, err := w.ExtractCities(3, 1.5, 1); err == nil {
		t.Error("bad conflict ratio accepted")
	}
	empty := &World{}
	if _, err := empty.ExtractCities(2, 0.25, 1); err == nil {
		t.Error("empty world accepted")
	}
}

func TestExtractCitiesMoreClustersThanCities(t *testing.T) {
	// Asking for more clusters than geographic cities still yields valid,
	// solvable instances (cities split into districts).
	w, err := DefaultWorld().Generate()
	if err != nil {
		t.Fatal(err)
	}
	cities, err := w.ExtractCities(5, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	totalE, totalU := 0, 0
	for _, c := range cities {
		totalE += c.Instance.NumEvents()
		totalU += c.Instance.NumUsers()
	}
	if totalE != len(w.Events) || totalU != len(w.Users) {
		t.Fatalf("entities lost in extraction: %d/%d vs %d/%d",
			totalE, totalU, len(w.Events), len(w.Users))
	}
}
