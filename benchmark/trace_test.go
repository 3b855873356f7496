package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func ms(x int) time.Duration { return time.Duration(x) * time.Millisecond }

func mkSpan(id, parent int, name string, a, b int) span {
	return span{id: id, parent: parent, name: name, start: ms(a), end: ms(b)}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		mkSpan(0, -1, "root", 0, 100),
		mkSpan(1, 0, "a", 10, 40),   // overlaps b: a parallel section
		mkSpan(2, 0, "b", 30, 60),   //
		mkSpan(3, 0, "c", 70, 80),   //
		mkSpan(4, 1, "a1", 15, 25),  // grandchild
		mkSpan(5, 0, "d", 95, 105),  // overruns the parent: clipped
		mkSpan(6, 1, "a2", 20, 30),  // overlaps a1
		mkSpan(7, 2, "b1", 30, 60),  // covers all of b
		mkSpan(8, 3, "c1", 72, 72),  // empty
		mkSpan(9, 3, "c2", 74, 76),  //
		mkSpan(10, 3, "c3", 75, 79), //
	}
	want := []int{
		100 - (50 + 10 + 5), // [10,60] ∪ [70,80] ∪ [95,100]
		30 - 15,             // [15,30]
		0,
		10 - 5, // [74,79]
		10, 10, 10, 30, 0, 2, 4,
	}
	got := selfTimes(spans)
	for i := range spans {
		if got[i] != ms(want[i]) {
			t.Errorf("span %s: self %v, want %v", spans[i].name, got[i], ms(want[i]))
		}
	}
}

func TestAssignParentsPicksTheTightestContainingSpan(t *testing.T) {
	spans := []span{
		mkSpan(0, -1, "solve", 0, 100),
		mkSpan(1, 0, "core.solve", 10, 90),
		mkSpan(2, unassigned, "decomp/solve", 12, 88),
		mkSpan(3, unassigned, "decomp/component", 13, 50), // two workers in parallel
		mkSpan(4, unassigned, "decomp/component", 14, 87),
		mkSpan(5, unassigned, "solve/mincostflow", 20, 40), // inside both components
		mkSpan(6, unassigned, "solve/mincostflow", 55, 80), // only in the second
		mkSpan(7, unassigned, "decomp/build", 10, 90),      // same interval as core.solve
		mkSpan(8, unassigned, "mincostflow/relax", 20, 40), // same interval as span 5
	}
	assignParents(spans)
	want := []int{-1, 0, 7, 2, 2, 3, 4, 1, 5}
	for i, s := range spans {
		if s.parent != want[i] {
			t.Errorf("span %d (%s): parent %d, want %d", i, s.name, s.parent, want[i])
		}
	}
	// The two parallel components overlap: their parent's self time is
	// what neither covers, and they keep their own time in full.
	self := selfTimes(spans)
	for i, want := range map[int]int{2: 2, 3: 17, 4: 48, 6: 25} {
		if self[i] != ms(want) {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].name, self[i], ms(want))
		}
	}
}

func TestChromeTraceNestsWithinEveryThread(t *testing.T) {
	spans := []span{
		mkSpan(0, -1, "solve", 0, 100),
		mkSpan(1, 0, "decomp/solve", 10, 90),
		mkSpan(2, 1, "decomp/component", 13, 50),
		mkSpan(3, 1, "decomp/component", 14, 87),
		mkSpan(4, 2, "solve/mincostflow", 20, 40),
		mkSpan(5, 3, "solve/mincostflow", 55, 80),
	}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != len(spans) {
		t.Fatalf("%d events for %d spans", len(doc.TraceEvents), len(spans))
	}
	byThread := map[[2]int][]chromeEvent{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event phase %q", e.Ph)
		}
		k := [2]int{e.Pid, e.Tid}
		byThread[k] = append(byThread[k], e)
	}
	for k, evs := range byThread {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
		var open []chromeEvent
		for _, e := range evs {
			for len(open) > 0 && open[len(open)-1].Ts+open[len(open)-1].Dur <= e.Ts {
				open = open[:len(open)-1]
			}
			if len(open) > 0 && open[len(open)-1].Ts+open[len(open)-1].Dur < e.Ts+e.Dur {
				t.Errorf("thread %v: %s overlaps %s without nesting", k, e.Name, open[len(open)-1].Name)
			}
			open = append(open, e)
		}
	}
}
