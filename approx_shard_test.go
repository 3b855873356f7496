package geacc

import (
	"testing"

	"github.com/ebsnlab/geacc/internal/dataset"
)

// bridgedProblem lifts a bridged clustered instance (one giant similarity
// component) into the public API via its cosine attributes.
func bridgedProblem(t *testing.T, maxArea int64) (*Problem, SolveOptions) {
	t.Helper()
	cfg := dataset.ClusteredConfig{
		NumEvents: 24, NumUsers: 240, Communities: 6, BlockDim: 2,
		EventCapMax: 6, UserCapMax: 3, CFRatio: 0.25,
		BridgeFrac: 0.1, Seed: 5,
	}
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	events := make([]Event, in.NumEvents())
	for v := range events {
		events[v] = Event{Attrs: in.Events[v].Attrs, Cap: in.Events[v].Cap}
	}
	users := make([]User, in.NumUsers())
	for u := range users {
		users[u] = User{Attrs: in.Users[u].Attrs, Cap: in.Users[u].Cap}
	}
	var pairs [][2]int
	for v := 0; v < in.NumEvents(); v++ {
		for _, w := range in.Conflicts.Neighbors(v) {
			if v < w {
				pairs = append(pairs, [2]int{v, w})
			}
		}
	}
	p, err := NewProblem(events, users, WithCosineSimilarity(), WithConflictPairs(pairs))
	if err != nil {
		t.Fatal(err)
	}
	return p, SolveOptions{ApproxShard: &ApproxShardOptions{MaxArea: maxArea, DriftBudget: 0.9}}
}

// TestApproxShardFacade: SolveOpts with ApproxShard set returns a feasible
// matching; with a MaxArea nothing exceeds, the result is bit-identical to
// the plain decomposed solve (the flag-off contract, since under-threshold
// components never shard).
func TestApproxShardFacade(t *testing.T) {
	p, opt := bridgedProblem(t, 500)
	sharded, err := p.SolveOpts(MinCostFlow, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(sharded); err != nil {
		t.Fatalf("sharded solve infeasible: %v", err)
	}
	plain, err := p.SolveOpts(MinCostFlow, SolveOptions{Decompose: true})
	if err != nil {
		t.Fatal(err)
	}
	huge := SolveOptions{ApproxShard: &ApproxShardOptions{MaxArea: 1 << 40}}
	same, err := p.SolveOpts(MinCostFlow, huge)
	if err != nil {
		t.Fatal(err)
	}
	pp, sp := plain.SortedPairs(), same.SortedPairs()
	if len(pp) != len(sp) {
		t.Fatalf("under-threshold shard solve changed the pair count: %d vs %d", len(sp), len(pp))
	}
	for i := range pp {
		if pp[i] != sp[i] {
			t.Fatalf("under-threshold shard solve changed pair %d", i)
		}
	}
}

func TestApproxShardFacadeBadStrategy(t *testing.T) {
	p, _ := bridgedProblem(t, 500)
	_, err := p.SolveOpts(MinCostFlow, SolveOptions{
		ApproxShard: &ApproxShardOptions{Strategy: "zigzag"},
	})
	if err == nil {
		t.Fatal("unknown shard strategy accepted")
	}
}
