package main

import (
	"testing"
	"time"
)

func TestCalibrationScale(t *testing.T) {
	if f := scaleTo(calReference); f != 1 {
		t.Errorf("at the reference speed the scale is %v, want 1", f)
	}
	// A host twice as slow halves every timing.
	if f := scaleTo(2 * calReference); f != 0.5 {
		t.Errorf("on a host twice as slow the scale is %v, want 0.5", f)
	}
	w := window{cal: [2]time.Duration{calReference, 3 * calReference}}
	if f := w.scale(); f != 0.5 {
		t.Errorf("a window between calibrations of 1× and 3× scales by %v, want 0.5", f)
	}
}

func TestCalibrationKernelsAreDeterministic(t *testing.T) {
	in := calibrationInput()
	for i, k := range calKernels {
		if a, b := k.f(in), k.f(in); a != b || a == 0 {
			t.Errorf("kernel %d: %v then %v", i, a, b)
		}
	}
	if d := calibrate(); d <= 0 {
		t.Errorf("calibration round took %v", d)
	}
}

func TestLaneChunksCoverTheMeasuredRequestsOnce(t *testing.T) {
	for _, c := range []struct{ n, warm, rounds int }{{340, 17, 20}, {4, 0, 4}, {1000, 50, 20}, {23, 1, 7}} {
		s := laneStream{reqs: make([]request, c.n), warm: c.warm}
		next := c.warm
		for k := 0; k < c.rounds; k++ {
			lo, hi := laneChunk(s, k, c.rounds)
			if lo != next || hi < lo {
				t.Fatalf("%+v: chunk %d is [%d, %d), want it to start at %d", c, k, lo, hi, next)
			}
			next = hi
		}
		if next != c.n {
			t.Errorf("%+v: chunks end at %d, want %d", c, next, c.n)
		}
	}
}
