package report

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
)

func reportInstance(t *testing.T) (*core.Instance, *core.Matching) {
	t.Helper()
	in, err := core.NewMatrixInstance(
		[]core.Event{{Cap: 2}, {Cap: 1}, {Cap: 3}},
		[]core.User{{Cap: 2}, {Cap: 1}, {Cap: 1}},
		conflict.FromPairs(3, [][2]int{{0, 1}}),
		[][]float64{
			{0.9, 0.8, 0.1},
			{0.7, 0.2, 0.3},
			{0.4, 0.5, 0.6},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMatching()
	m.Add(0, 0, 0.9) // user 0 in event 0
	m.Add(2, 0, 0.4) // user 0 also in event 2
	m.Add(0, 1, 0.8) // user 1 fills event 0
	return in, m
}

func TestBuildBasics(t *testing.T) {
	in, m := reportInstance(t)
	r, err := Build(context.Background(), in, m, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.MaxSum-2.1) > 1e-12 || r.Pairs != 3 {
		t.Fatalf("MaxSum/Pairs = %v/%d", r.MaxSum, r.Pairs)
	}
	if r.UpperBound < r.MaxSum {
		t.Fatalf("upper bound %v below achieved %v", r.UpperBound, r.MaxSum)
	}
	if r.EventsTotal != 3 || r.EventsFull != 1 || r.EventsEmpty != 1 {
		t.Fatalf("event stats %+v", r)
	}
	if r.EventCapacity != 6 || r.EventLoad != 3 {
		t.Fatalf("event load %d/%d", r.EventLoad, r.EventCapacity)
	}
	if r.UsersTotal != 3 || r.UsersArranged != 2 {
		t.Fatalf("user stats %+v", r)
	}
	if r.UserCapacity != 4 || r.UserLoad != 3 {
		t.Fatalf("user load %d/%d", r.UserLoad, r.UserCapacity)
	}
	if r.Satisfaction.N != 2 {
		t.Fatalf("satisfaction over %d users", r.Satisfaction.N)
	}
	// User 0: 1.3, user 1: 0.8 -> mean 1.05.
	if math.Abs(r.Satisfaction.Mean-1.05) > 1e-12 {
		t.Fatalf("mean satisfaction %v", r.Satisfaction.Mean)
	}
	if r.FairnessGini < 0 || r.FairnessGini > 1 {
		t.Fatalf("gini %v", r.FairnessGini)
	}
	// Event 0 (2 attendees) leads the fill ranking.
	if len(r.TopEvents) == 0 || r.TopEvents[0].Event != 0 || r.TopEvents[0].Attendees != 2 {
		t.Fatalf("top events %+v", r.TopEvents)
	}
	// Event 1 (0 attendees) is the emptiest.
	if len(r.WorstUtilized) == 0 || r.WorstUtilized[0].Event != 1 {
		t.Fatalf("worst utilized %+v", r.WorstUtilized)
	}
}

func TestBuildSkipBound(t *testing.T) {
	in, m := reportInstance(t)
	r, err := Build(context.Background(), in, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.UpperBound != 0 {
		t.Fatalf("bound computed despite skip: %v", r.UpperBound)
	}
	if strings.Contains(r.String(), "upper bound") {
		t.Error("String mentions a bound that was skipped")
	}
}

func TestBuildRejectsInfeasible(t *testing.T) {
	in, _ := reportInstance(t)
	bad := core.NewMatching()
	bad.Add(0, 0, 0.5) // wrong similarity
	if _, err := Build(context.Background(), in, bad, true); err == nil {
		t.Fatal("infeasible matching accepted")
	}
}

func TestBuildEmptyMatching(t *testing.T) {
	in, _ := reportInstance(t)
	r, err := Build(context.Background(), in, core.NewMatching(), true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pairs != 0 || r.UsersArranged != 0 || r.EventsEmpty != 3 {
		t.Fatalf("empty report %+v", r)
	}
	if r.Satisfaction.N != 0 || r.FairnessGini != 0 {
		t.Fatal("empty satisfaction stats")
	}
}

func TestReportString(t *testing.T) {
	in, m := reportInstance(t)
	r, err := Build(context.Background(), in, m, false)
	if err != nil {
		t.Fatal(err)
	}
	text := r.String()
	for _, want := range []string{
		"MaxSum", "2.1000", "upper bound", "events", "3 total",
		"users", "satisfaction", "gini", "best-filled", "v0:2/2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestGini(t *testing.T) {
	if g := gini(nil); g != 0 {
		t.Error("empty gini")
	}
	if g := gini([]float64{5}); g != 0 {
		t.Error("singleton gini")
	}
	if g := gini([]float64{1, 1, 1, 1}); math.Abs(g) > 1e-12 {
		t.Errorf("equal sample gini = %v, want 0", g)
	}
	// One user holds everything: gini -> (n-1)/n.
	if g := gini([]float64{0, 0, 0, 10}); math.Abs(g-0.75) > 1e-12 {
		t.Errorf("concentrated gini = %v, want 0.75", g)
	}
	if g := gini([]float64{0, 0}); g != 0 {
		t.Error("all-zero gini should be 0")
	}
	// More unequal samples score higher.
	if gini([]float64{1, 9}) <= gini([]float64{4, 6}) {
		t.Error("gini not monotone in inequality")
	}
}
