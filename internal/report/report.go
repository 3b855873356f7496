// Package report summarizes the quality of an event-participant
// arrangement: objective value and optimality gap, capacity utilization on
// both sides, satisfaction distribution across users, and a fairness
// measure. The geacc-solve command renders it with -report.
package report

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/stats"
)

// Report digests one matching against its instance.
type Report struct {
	// Objective.
	MaxSum     float64
	Pairs      int
	UpperBound float64 // conflict-free relaxation optimum (Corollary 1)

	// Events.
	EventsTotal   int
	EventsFull    int   // at capacity
	EventsEmpty   int   // no attendees
	EventCapacity int64 // Σ c_v
	EventLoad     int64 // matched attendees

	// Users.
	UsersTotal    int
	UsersArranged int // at least one event
	UserCapacity  int64
	UserLoad      int64
	Satisfaction  stats.Summary // per arranged user: Σ sim over their events
	FairnessGini  float64       // Gini over arranged users' satisfaction
	TopEvents     []EventFill   // best-filled events, up to 5
	WorstUtilized []EventFill   // emptiest non-full events, up to 5
}

// EventFill is one event's recruitment outcome.
type EventFill struct {
	Event     int
	Attendees int
	Capacity  int
}

// Build validates the matching and computes the report. The relaxation
// upper bound is computed unless skipBound is set (it costs a min-cost-flow
// solve, noticeable on large instances); a canceled ctx stops it and Build
// returns ctx's error.
func Build(ctx context.Context, in *core.Instance, m *core.Matching, skipBound bool) (*Report, error) {
	if err := core.Validate(in, m); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	r := &Report{
		MaxSum:      m.MaxSum(),
		Pairs:       m.Size(),
		EventsTotal: in.NumEvents(),
		UsersTotal:  in.NumUsers(),
	}
	if !skipBound {
		ub, err := core.RelaxedUpperBoundCtx(ctx, in)
		if err != nil {
			return nil, err
		}
		r.UpperBound = ub
	}

	fills := make([]EventFill, in.NumEvents())
	for v := 0; v < in.NumEvents(); v++ {
		fills[v] = EventFill{Event: v, Attendees: len(m.EventUsers(v)), Capacity: in.Events[v].Cap}
		r.EventCapacity += int64(in.Events[v].Cap)
		r.EventLoad += int64(fills[v].Attendees)
		switch {
		case fills[v].Attendees == 0:
			r.EventsEmpty++
		case fills[v].Attendees == in.Events[v].Cap:
			r.EventsFull++
		}
	}

	var satisfaction []float64
	for u := 0; u < in.NumUsers(); u++ {
		r.UserCapacity += int64(in.Users[u].Cap)
		events := m.UserEvents(u)
		r.UserLoad += int64(len(events))
		if len(events) == 0 {
			continue
		}
		r.UsersArranged++
		var s float64
		for _, v := range events {
			s += in.Similarity(v, u)
		}
		satisfaction = append(satisfaction, s)
	}
	r.Satisfaction = stats.Summarize(satisfaction)
	r.FairnessGini = gini(satisfaction)

	sort.Slice(fills, func(i, j int) bool {
		if fills[i].Attendees != fills[j].Attendees {
			return fills[i].Attendees > fills[j].Attendees
		}
		return fills[i].Event < fills[j].Event
	})
	r.TopEvents = clip(fills, 5)
	// Emptiest events (ascending attendees).
	rev := append([]EventFill(nil), fills...)
	sort.Slice(rev, func(i, j int) bool {
		if rev[i].Attendees != rev[j].Attendees {
			return rev[i].Attendees < rev[j].Attendees
		}
		return rev[i].Event < rev[j].Event
	})
	r.WorstUtilized = clip(rev, 5)
	return r, nil
}

func clip(fills []EventFill, n int) []EventFill {
	if len(fills) < n {
		n = len(fills)
	}
	return append([]EventFill(nil), fills[:n]...)
}

// gini computes the Gini coefficient of a non-negative sample in [0, 1]:
// 0 = perfectly equal satisfaction, →1 = concentrated on few users.
func gini(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, x := range sorted {
		cum += float64(i+1) * x
		total += x
	}
	if total == 0 {
		return 0
	}
	n := float64(len(sorted))
	return (2*cum)/(n*total) - (n+1)/n
}

// String renders the report as a human-readable block.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "arrangement report\n")
	fmt.Fprintf(&b, "  MaxSum        %.4f over %d pairs\n", r.MaxSum, r.Pairs)
	if r.UpperBound > 0 {
		fmt.Fprintf(&b, "  upper bound   %.4f (achieved %.1f%%)\n",
			r.UpperBound, 100*r.MaxSum/r.UpperBound)
	}
	fmt.Fprintf(&b, "  events        %d total, %d full, %d empty; load %d/%d seats (%.1f%%)\n",
		r.EventsTotal, r.EventsFull, r.EventsEmpty, r.EventLoad, r.EventCapacity,
		percent(r.EventLoad, r.EventCapacity))
	fmt.Fprintf(&b, "  users         %d total, %d arranged; load %d/%d slots (%.1f%%)\n",
		r.UsersTotal, r.UsersArranged, r.UserLoad, r.UserCapacity,
		percent(r.UserLoad, r.UserCapacity))
	fmt.Fprintf(&b, "  satisfaction  %s\n", r.Satisfaction)
	fmt.Fprintf(&b, "  fairness      gini %.3f\n", r.FairnessGini)
	if len(r.TopEvents) > 0 {
		fmt.Fprintf(&b, "  best-filled  ")
		for _, f := range r.TopEvents {
			fmt.Fprintf(&b, " v%d:%d/%d", f.Event, f.Attendees, f.Capacity)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

func percent(load, capacity int64) float64 {
	if capacity == 0 {
		return 0
	}
	return 100 * float64(load) / float64(capacity)
}
