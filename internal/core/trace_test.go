package core

import (
	"math/rand"
	"testing"
)

// TestTable1TraceMatchesExample3 replays the paper's Example 3 walkthrough
// step by step from the trace hook.
func TestTable1TraceMatchesExample3(t *testing.T) {
	in := table1Instance(t)
	var steps []TraceStep
	m := GreedyOpts(in, GreedyOptions{Trace: func(s TraceStep) { steps = append(steps, s) }})
	if len(steps) == 0 {
		t.Fatal("no trace recorded")
	}
	// "In the first iteration, {v1, u1} is popped from H and added to the
	// matching."
	if s := steps[0]; s.V != 0 || s.U != 0 || !s.Accepted {
		t.Fatalf("step 1 = %+v, want accept (v1, u1)", s)
	}
	// "Then in the second iteration, we pop {v3, u1}. Note that v3
	// conflicts with v1, which is already matched to u1."
	if s := steps[1]; s.V != 2 || s.U != 0 || s.Accepted || s.Reason != "conflict" {
		t.Fatalf("step 2 = %+v, want conflict-reject (v3, u1)", s)
	}
	// "Then during the third iteration, {v1, u3} is popped from H, which
	// can be added to the matching."
	if s := steps[2]; s.V != 0 || s.U != 2 || !s.Accepted {
		t.Fatalf("step 3 = %+v, want accept (v1, u3)", s)
	}
	// The accepted steps must reconstruct the final matching exactly.
	rebuilt := NewMatching()
	for _, s := range steps {
		if s.Accepted {
			rebuilt.Add(s.V, s.U, s.Sim)
		}
	}
	if !matchingsEqual(rebuilt, m) {
		t.Fatal("trace does not reconstruct the matching")
	}
	// Pops arrive in non-increasing similarity (Corollary 2).
	for i := 1; i < len(steps); i++ {
		if steps[i].Sim > steps[i-1].Sim+1e-12 {
			t.Fatalf("pop order violated Corollary 2 at step %d", i)
		}
	}
}

func TestTraceReasonsAreClassified(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	in := randMatrixInstance(rng, 5, 12, 3, 2, 0.5)
	valid := map[string]bool{"": true, "conflict": true}
	GreedyOpts(in, GreedyOptions{Trace: func(s TraceStep) {
		if !valid[s.Reason] {
			t.Fatalf("unknown reason %q", s.Reason)
		}
		if s.Accepted != (s.Reason == "") {
			t.Fatalf("inconsistent step %+v", s)
		}
	}})
}

func TestTraceDoesNotChangeResult(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	in := randVectorInstance(rng, 5, 15, 3, 4, 3, 0.3)
	plain := Greedy(in)
	traced := GreedyOpts(in, GreedyOptions{Trace: func(TraceStep) {}})
	if !matchingsEqual(plain, traced) {
		t.Fatal("tracing changed the matching")
	}
}
