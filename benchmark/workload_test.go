package main

import (
	"bytes"
	"slices"
	"testing"
)

// flatten renders every request of every lane, set-up included, as bytes.
func flatten(ls []laneStream) []byte {
	var b bytes.Buffer
	for _, lane := range ls {
		for _, r := range append(append([]request(nil), lane.setup...), lane.reqs...) {
			b.WriteString(r.method + " " + r.path + "\n")
			b.Write(r.body)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func testCount(w *workload) int {
	if w.solve == nil {
		return 200
	}
	return 20
}

func TestStreamsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		n := testCount(w)
		a, err := w.streams(7, n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.streams(7, n)
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.streams(8, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flatten(a), flatten(b)) {
			t.Errorf("%s: seed 7 gave two different request streams", w.name)
		}
		if bytes.Equal(flatten(a), flatten(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
		if bytes.Equal(flatten(a[:1]), flatten(a[1:])) {
			t.Errorf("%s: both lanes send the same stream", w.name)
		}
	}
}

func TestSolveGreedyRepeatShareIsExactlyAQuarter(t *testing.T) {
	w, err := lookupWorkload("solve-greedy")
	if err != nil {
		t.Fatal(err)
	}
	n := w.perLane(15)
	ls, err := w.streams(3, n)
	if err != nil {
		t.Fatal(err)
	}
	for l, lane := range ls {
		repeats := 0
		var fresh []int
		for i, r := range lane.reqs {
			if r.kind != opRepeat {
				fresh = append(fresh, i)
				continue
			}
			repeats++
			if i == 0 {
				t.Fatalf("lane %d starts with a repeat", l)
			}
			recent := fresh[max(0, len(fresh)-8):]
			found := false
			for _, f := range recent {
				found = found || f == r.of
			}
			if !found {
				t.Errorf("lane %d request %d repeats %d, not one of the last 8 fresh %v", l, i, r.of, recent)
			}
			if !bytes.Equal(r.body, lane.reqs[r.of].body) || r.path != lane.reqs[r.of].path {
				t.Errorf("lane %d request %d is not a byte copy of request %d", l, i, r.of)
			}
		}
		if 4*repeats != len(lane.reqs) {
			t.Errorf("lane %d: %d repeats of %d requests, want exactly 25%%", l, repeats, len(lane.reqs))
		}
	}
}

func TestDeltaOpOrderIsTheSameOnEverySeed(t *testing.T) {
	kinds := func(lane int, seed int64) []opKind {
		ls, err := deltaStream("t", lane, seed, 400)
		if err != nil {
			t.Fatal(err)
		}
		var out []opKind
		for _, r := range ls.reqs {
			out = append(out, r.kind)
		}
		return out
	}
	if a, b := kinds(0, 1), kinds(0, 2); !slices.Equal(a, b) {
		t.Error("lane 0: the op order depends on the seed")
	}
	if slices.Equal(kinds(0, 1), kinds(1, 1)) {
		t.Error("both lanes send their ops in the same order")
	}
	if _, err := deltaStream("t", 0, 1, 300); err == nil {
		t.Error("300 ops accepted; the mix is exact only over blocks of 200")
	}
}

func TestSolveSetupIsTheSameOnEverySeed(t *testing.T) {
	w, err := lookupWorkload("solve-mcflow-diag")
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.streams(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.streams(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(a[0].setup) != 1 || len(a[1].setup) != 0 {
		t.Fatalf("set-up requests per lane: %d, %d; want 1, 0", len(a[0].setup), len(a[1].setup))
	}
	if !bytes.Equal(a[0].setup[0].body, b[0].setup[0].body) {
		t.Error("the set-up solve differs between seeds")
	}
	if bytes.Equal(a[0].setup[0].body, a[0].reqs[0].body) {
		t.Error("the set-up solve repeats a request of the stream")
	}
}

func TestDeltaMixIsExactPerMille(t *testing.T) {
	ls, err := deltaStream("t", 0, 5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[opKind]int{}
	for _, r := range ls.reqs {
		counts[r.kind]++
	}
	for _, m := range deltaMix {
		if counts[m.kind] != m.perMille {
			t.Errorf("%s: %d of 1000 ops, want %d", m.kind, counts[m.kind], m.perMille)
		}
	}
	if got := len(ls.setup); got != 1+deltaSetupEvents+deltaSetupUsers {
		t.Errorf("set-up has %d requests", got)
	}
}
