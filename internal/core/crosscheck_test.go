package core

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ebsnlab/geacc/internal/assignment"
)

// TestUnitCapacityNoConflictsEqualsHungarian cross-validates the min-cost
// flow reduction against an independently implemented Hungarian algorithm:
// with all capacities one and CF = ∅, GEACC *is* maximum-weight bipartite
// matching (Section II of the paper), so MinCostFlow-GEACC (exact on that
// special case by Lemma 1) must equal the Hungarian optimum.
func TestUnitCapacityNoConflictsEqualsHungarian(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv, nu := 1+rng.Intn(8), 1+rng.Intn(8)
		events := make([]Event, nv)
		for i := range events {
			events[i] = Event{Cap: 1}
		}
		users := make([]User, nu)
		for i := range users {
			users[i] = User{Cap: 1}
		}
		matrix := make([][]float64, nv)
		for v := range matrix {
			matrix[v] = make([]float64, nu)
			for u := range matrix[v] {
				if rng.Float64() < 0.2 {
					continue
				}
				matrix[v][u] = float64(1+rng.Intn(999)) / 1000
			}
		}
		in, err := NewMatrixInstance(events, users, nil, matrix)
		if err != nil {
			return false
		}
		geaccOpt := MinCostFlowOpts(in, FlowOptions{}).Matching.MaxSum()
		_, hungarianOpt, err := assignment.Solve(matrix)
		if err != nil {
			return false
		}
		return abs(geaccOpt-hungarianOpt) <= 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// FuzzExactEqualsHungarian runs the same cross-check against Prune-GEACC
// as well as MinCostFlow-GEACC: on a unit-capacity, conflict-free instance
// of at most 5×6 (see decodeUnitMatrix; zero and tied similarities
// included), both must reach the Hungarian optimum within 1e-9. The seed
// corpus replays 25 fixed random trials, plus an all-zero and an all-tied
// matrix, under plain `go test`.
func FuzzExactEqualsHungarian(f *testing.F) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		nv, nu := 1+rng.Intn(4), 1+rng.Intn(5)
		data := []byte{byte(nv - 1), byte(nu - 1)}
		for i := 0; i < nv*nu; i++ {
			data = binary.BigEndian.AppendUint16(data, uint16(rng.Intn(1000)))
		}
		f.Add(data)
	}
	f.Add(append([]byte{4, 5}, make([]byte, 60)...))
	tied := []byte{4, 5}
	for i := 0; i < 30; i++ {
		tied = binary.BigEndian.AppendUint16(tied, 500)
	}
	f.Add(tied)
	f.Fuzz(func(t *testing.T, data []byte) {
		matrix, ok := decodeUnitMatrix(data)
		if !ok {
			return
		}
		events := make([]Event, len(matrix))
		for i := range events {
			events[i] = Event{Cap: 1}
		}
		users := make([]User, len(matrix[0]))
		for i := range users {
			users[i] = User{Cap: 1}
		}
		in, err := NewMatrixInstance(events, users, nil, matrix)
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := assignment.Solve(matrix)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := ExactOpts(in, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if abs(m.MaxSum()-want) > 1e-9 {
			t.Fatalf("%v: exact %v != hungarian %v", matrix, m.MaxSum(), want)
		}
		if got := MinCostFlowOpts(in, FlowOptions{}).Matching.MaxSum(); abs(got-want) > 1e-9 {
			t.Fatalf("%v: mincostflow %v != hungarian %v", matrix, got, want)
		}
	})
}

// decodeUnitMatrix reads
//
//	byte 0    events 1 + b%5
//	byte 1    users 1 + b%6
//	rest      one big-endian uint16 k per cell, row-major: similarity
//	          (k % 1001) / 1000
//
// ok is false when data is too short.
func decodeUnitMatrix(data []byte) (matrix [][]float64, ok bool) {
	if len(data) < 2 {
		return nil, false
	}
	nv, nu := 1+int(data[0])%5, 1+int(data[1])%6
	cells := data[2:]
	if len(cells) < 2*nv*nu {
		return nil, false
	}
	matrix = make([][]float64, nv)
	for v := range matrix {
		matrix[v] = make([]float64, nu)
		for u := range matrix[v] {
			k := binary.BigEndian.Uint16(cells[2*(v*nu+u):])
			matrix[v][u] = float64(k%1001) / 1000
		}
	}
	return matrix, true
}
