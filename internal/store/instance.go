package store

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/sim"
)

// ErrNotFound marks a Check failure whose op names an event or user the
// instance does not have.
var ErrNotFound = errors.New("not found")

// Instance is one live arrangement and the state its deltas move: the
// arranger, the log the deltas are written ahead to, the dirty marks the
// next scoped rebalance consumes and the lifetime op counts. geacc-server's
// deltas and replay are its two callers, so an op is checked, marked,
// applied and counted by the same code whether it arrives over HTTP or from
// ops.jsonl. Methods are not safe for concurrent use.
type Instance struct {
	Meta Meta
	Arr  *core.Arranger
	Log  *Log // nil when the instance is ephemeral

	dirtyE, dirtyU map[int]bool
	opCounts       map[string]int64
}

// NewInstance wraps arr, with no dirty marks and no ops counted.
func NewInstance(meta Meta, arr *core.Arranger, log *Log) *Instance {
	return &Instance{Meta: meta, Arr: arr, Log: log,
		dirtyE: make(map[int]bool), dirtyU: make(map[int]bool), opCounts: make(map[string]int64)}
}

// Check is the validation every delta op passes before it is logged, and
// every logged op passes again on replay: an arrival's attribute vector
// has Meta.Dim entries (Meta.Validate pins Dim > 0, so a mismatched vector
// never reaches a similarity kernel, which panics on unequal lengths), the
// instance's similarity can score it (sim.CheckVectors), its capacity is
// not negative, an event's conflicts name existing events, and
// a cancellation names an existing node (else the error wraps ErrNotFound).
// Rebalance outcomes are checked when applied, by core.Validate.
func (inst *Instance) Check(op Op) error {
	switch op.Kind {
	case OpAddEvent, OpAddUser:
		if len(op.Attrs) != inst.Meta.Dim {
			return fmt.Errorf("store: instance %q wants %d attributes, got %d", inst.Meta.ID, inst.Meta.Dim, len(op.Attrs))
		}
		if _, err := sim.CheckVectors(inst.Arr.SimFunc(), []sim.Vector{op.Attrs}); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if op.Cap < 0 {
			return fmt.Errorf("store: negative capacity %d", op.Cap)
		}
		nv := inst.Arr.NumEvents()
		for _, c := range op.Conflicts {
			if c < 0 || c >= nv {
				return fmt.Errorf("store: conflict id %d out of range [0, %d)", c, nv)
			}
		}
	case OpCancelEvent:
		return checkTarget("event", op.Event, inst.Arr.NumEvents())
	case OpRemoveUser:
		return checkTarget("user", op.User, inst.Arr.NumUsers())
	}
	return nil
}

func checkTarget(kind string, id *int, n int) error {
	if id == nil {
		return fmt.Errorf("store: op names no %s", kind)
	}
	if *id < 0 || *id >= n {
		return fmt.Errorf("store: %s %d %w", kind, *id, ErrNotFound)
	}
	return nil
}

// Commit runs the write-ahead sequence for one op that passed Check:
// append it to the log, then apply it. An apply failure after the append
// means the log holds an op the arranger refused.
func (inst *Instance) Commit(op Op) (int64, error) {
	seq, err := inst.append(op)
	if err != nil {
		return 0, err
	}
	if err := inst.apply(op); err != nil {
		return 0, fmt.Errorf("store: op %d is logged but the arranger refused it: %w", seq, err)
	}
	return seq, nil
}

// append logs op; an ephemeral instance logs nothing and reports seq 0.
func (inst *Instance) append(op Op) (int64, error) {
	if inst.Log == nil {
		return 0, nil
	}
	return inst.Log.Append(op)
}

// apply is the one step both callers run for a checked op: mark it dirty,
// apply it to the arranger, count it.
func (inst *Instance) apply(op Op) error {
	inst.markDirty(op)
	if err := Apply(inst.Arr, op); err != nil {
		return err
	}
	inst.opCounts[op.Kind]++
	return nil
}

// markDirty is the dirty-mark rule: an arrival marks the id it is about to
// receive, a cancellation its target, and a rebalance clears every mark
// (it consumed them).
func (inst *Instance) markDirty(op Op) {
	switch op.Kind {
	case OpAddEvent:
		inst.dirtyE[inst.Arr.NumEvents()] = true
	case OpAddUser:
		inst.dirtyU[inst.Arr.NumUsers()] = true
	case OpCancelEvent:
		inst.dirtyE[*op.Event] = true
	case OpRemoveUser:
		inst.dirtyU[*op.User] = true
	case OpRebalance:
		clear(inst.dirtyE)
		clear(inst.dirtyU)
	}
}

// CommitRebalance logs a rebalance the arranger has already adopted (the
// log records the outcome, not the solve, so replay never runs a solver).
// prev is the matching an adopted rebalance replaced (what SetMatching
// handed back): when the append fails, prev is restored so memory and log
// still agree. On success the marks are cleared and the op counted.
func (inst *Instance) CommitRebalance(adopted bool, prev *core.Matching) (int64, error) {
	op := Op{Kind: OpRebalance, Adopted: adopted}
	if adopted {
		op.assignments = inst.Arr.Pairs()
	}
	seq, err := inst.append(op)
	if err != nil {
		if adopted {
			_, rerr := inst.Arr.SetMatching(prev)
			err = errors.Join(err, rerr)
		}
		return 0, err
	}
	inst.markDirty(op)
	inst.opCounts[OpRebalance]++
	return seq, nil
}

// SnapshotIfDue folds the log into a fresh snapshot once at least every
// ops have accumulated since the last one. The snapshot carries the dirty
// marks, so a mark outlives the op it folds away; call it after the op's
// commit. The write finishes even when ctx is cancelled.
func (inst *Instance) SnapshotIfDue(ctx context.Context, every int) error {
	if inst.Log == nil || inst.Log.OpsSinceSnapshot() < every {
		return nil
	}
	dirtyE, dirtyU := inst.Dirty()
	return inst.Log.WriteSnapshot(context.WithoutCancel(ctx), inst.Arr, dirtyE, dirtyU)
}

// Dirty returns the parent ids marked since the last rebalance, ascending.
func (inst *Instance) Dirty() (events, users []int) {
	return sortedKeys(inst.dirtyE), sortedKeys(inst.dirtyU)
}

// OpCounts returns a copy of the lifetime op counts by kind.
func (inst *Instance) OpCounts() map[string]int64 { return maps.Clone(inst.opCounts) }

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
