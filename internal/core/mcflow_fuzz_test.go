package core

import (
	"context"
	"encoding/binary"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
)

// FuzzWarmCold drives random delta streams over a small random universe
// and requires the warm-started relaxation to agree with the cold one bit
// for bit at every step: Δ, RelaxedMaxSum, the relaxed pairs, and the final
// matching. A fuzzed mask zeroes similarity pairs, so the networks range
// from dense to almost arc-free. The seed corpus in
// testdata/fuzz/FuzzWarmCold replays under plain `go test`.
func FuzzWarmCold(f *testing.F) {
	f.Add([]byte{3, 6, 0x00, 0x00, 0x00, 2, 1, 3, 1, 2, 3, 1, 2, 3, 7, 1, 2, 3, 4, 5, 6, 7, 8, 0x05, 0x0e, 0x13, 0x21, 0x42, 0x0b, 0x80})
	f.Add([]byte{4, 8, 0xd7, 0x6e, 0xbb, 0x5f, 0x3c, 3, 2, 1, 3, 0, 1, 2, 3, 1, 2, 3, 2, 9, 9, 8, 7, 6, 5, 4, 3, 0x11, 0x06, 0x1a, 0x2b, 0x73, 0x64, 0x09, 0x55, 0xf2})
	f.Fuzz(func(t *testing.T, data []byte) {
		uni, ops, ok := decodeWarmUniverse(data)
		if !ok {
			return
		}
		wc := NewWarmCache(4)
		events := make([]int, uni.ne)
		for i := range events {
			events[i] = i
		}
		users := make([]int, uni.nu)
		for i := range users {
			users[i] = i
		}
		for step := 0; ; step++ {
			in := uni.sub(events, users)
			cold, err := minCostFlowCtx(context.Background(), in, FlowOptions{})
			if err != nil {
				t.Fatal(err)
			}
			warm, err := minCostFlowWarmCtx(context.Background(), in, events, users, wc)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameFlowResult(warm, cold); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			mustValidate(t, in, warm.Matching, "mincostflow-warm")
			if step == len(ops) {
				break
			}
			events, users = uni.apply(ops[step], events, users)
		}
	})
}

// warmUniverse is a fuzzed pool of entities with fixed similarities and
// conflicts, from which component sub-instances are drawn.
type warmUniverse struct {
	ne, nu    int
	sim       [][]float64 // sim[e][u] over the whole pool
	conflicts [][]bool
	eventCaps []int
	userCaps  []int
}

// decodeWarmUniverse reads
//
//	byte 0       pool events 2 + b%5
//	byte 1       pool users 2 + b%9
//	mask bytes   one bit per (event, user) pair, row-major: set = similarity 0
//	cap bytes    per event b%4 (0 = canceled), per user 1 + b%3
//	8 bytes      a seed from which every positive similarity and every
//	             conflict is hashed
//	rest         the delta stream, one op per byte (at most 32), see apply
//
// Positive similarities are hashed to 53-bit fractions, so two paths tie
// in cost with negligible probability; among tied optima the warm and the
// cold solve may legitimately settle on different flows. ok is false when
// data is too short.
func decodeWarmUniverse(data []byte) (uni *warmUniverse, ops []byte, ok bool) {
	if len(data) < 2 {
		return nil, nil, false
	}
	ne, nu := 2+int(data[0]%5), 2+int(data[1]%9)
	maskLen := (ne*nu + 7) / 8
	need := 2 + maskLen + ne + nu + 8
	if len(data) < need {
		return nil, nil, false
	}
	mask := data[2 : 2+maskLen]
	caps := data[2+maskLen : 2+maskLen+ne+nu]
	seed := binary.LittleEndian.Uint64(data[need-8 : need])
	uni = &warmUniverse{ne: ne, nu: nu}
	for e := 0; e < ne; e++ {
		uni.eventCaps = append(uni.eventCaps, int(caps[e]%4))
		row := make([]float64, nu)
		for u := range row {
			if i := e*nu + u; mask[i/8]&(1<<(i%8)) == 0 {
				row[u] = float64(splitmix(seed^uint64(e<<16|u))>>11) / (1 << 53)
			}
		}
		uni.sim = append(uni.sim, row)
		cf := make([]bool, ne)
		for o := range cf {
			a, b := min(e, o), max(e, o)
			cf[o] = a != b && splitmix(seed+uint64(a<<8|b))%4 == 0
		}
		uni.conflicts = append(uni.conflicts, cf)
	}
	for u := 0; u < nu; u++ {
		uni.userCaps = append(uni.userCaps, 1+int(caps[ne+u]%3))
	}
	ops = data[need:]
	if len(ops) > 32 {
		ops = ops[:32]
	}
	return uni, ops, true
}

// splitmix is the SplitMix64 finalizer: a cheap, well-mixed hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// sub materializes the component sub-instance over the given pool ids.
func (uni *warmUniverse) sub(events, users []int) *Instance {
	evs := make([]Event, len(events))
	matrix := make([][]float64, len(events))
	for i, e := range events {
		evs[i] = Event{Cap: uni.eventCaps[e]}
		matrix[i] = make([]float64, len(users))
		for j, u := range users {
			matrix[i][j] = uni.sim[e][u]
		}
	}
	usrs := make([]User, len(users))
	for j, u := range users {
		usrs[j] = User{Cap: uni.userCaps[u]}
	}
	var pairs [][2]int
	for i, a := range events {
		for j := i + 1; j < len(events); j++ {
			if uni.conflicts[a][events[j]] {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	in, err := NewMatrixInstance(evs, usrs, conflict.FromPairs(len(events), pairs), matrix)
	if err != nil {
		panic(err)
	}
	return in
}

// apply performs one delta op: the low two bits pick the kind, the rest
// (x) its target.
//
//	0  event x%ne joins, or leaves if present (never the last one)
//	1  user x%nu joins, or leaves if present (never the last one)
//	2  event x%ne gets capacity (x/ne)%4
//	3  user x%nu gets capacity 1 + (x/nu)%3
func (uni *warmUniverse) apply(op byte, events, users []int) ([]int, []int) {
	x := int(op >> 2)
	switch op & 3 {
	case 0:
		events = toggle(events, x%uni.ne)
	case 1:
		users = toggle(users, x%uni.nu)
	case 2:
		uni.eventCaps[x%uni.ne] = (x / uni.ne) % 4
	case 3:
		uni.userCaps[x%uni.nu] = 1 + (x/uni.nu)%3
	}
	return events, users
}

// toggle removes id from the sorted members, unless it is the last one, or
// inserts it in order when absent.
func toggle(members []int, id int) []int {
	for i, m := range members {
		if m == id {
			if len(members) == 1 {
				return members
			}
			return removeAt(members, i)
		}
	}
	return insertSorted(members, id)
}
