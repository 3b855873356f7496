package core

import (
	"fmt"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/sim"
)

// Event is an event v = <l_v, c_v> (Definition 1): attribute vector plus the
// maximum number of attendees.
type Event struct {
	Attrs sim.Vector
	Cap   int
}

// User is a user u = <l_u, c_u> (Definition 2): attribute vector plus the
// maximum number of events the user may be arranged to.
type User struct {
	Attrs sim.Vector
	Cap   int
}

// Instance is a GEACC problem instance (Definition 5). Similarities come
// either from a similarity function over the attribute vectors (the paper's
// Equation 1 setup) or from an explicit |V|×|U| matrix (as in the TABLE I
// walkthrough, where interestingness values are given directly).
type Instance struct {
	Events    []Event
	Users     []User
	Conflicts *conflict.Graph

	// SimFunc computes similarities from attribute vectors. Ignored when
	// Matrix is non-nil.
	SimFunc sim.Func
	// Matrix optionally fixes similarity values explicitly: Matrix[v][u].
	Matrix [][]float64

	// Batched similarity kernels over each side's attribute vectors, built
	// once by NewInstance (nil on matrix instances and on Instance literals
	// assembled without the constructor). They are a pure fast path: every
	// consumer falls back to SimFunc when they are absent or stale.
	usersKernel  *sim.Kernel // evaluates sim(query, Users[u].Attrs)
	eventsKernel *sim.Kernel // evaluates sim(query, Events[v].Attrs)
}

// NewInstance builds a vector-based instance and validates its shape and
// that f can score every attribute vector (sim.CheckVectors). conflicts
// may be nil for a conflict-free instance.
func NewInstance(events []Event, users []User, conflicts *conflict.Graph, f sim.Func) (*Instance, error) {
	in := &Instance{Events: events, Users: users, Conflicts: conflicts, SimFunc: f}
	if f == nil {
		return nil, fmt.Errorf("core: nil similarity function")
	}
	if err := in.check(); err != nil {
		return nil, err
	}
	d := -1
	for i, e := range events {
		if d == -1 {
			d = len(e.Attrs)
		}
		if len(e.Attrs) != d {
			return nil, fmt.Errorf("core: event %d has %d attributes, want %d", i, len(e.Attrs), d)
		}
	}
	for i, u := range users {
		if d == -1 {
			d = len(u.Attrs)
		}
		if len(u.Attrs) != d {
			return nil, fmt.Errorf("core: user %d has %d attributes, want %d", i, len(u.Attrs), d)
		}
	}
	eventAttrs, userAttrs := in.EventAttrs(), in.UserAttrs()
	if i, err := sim.CheckVectors(f, eventAttrs); err != nil {
		return nil, fmt.Errorf("core: event %d: %w", i, err)
	}
	if i, err := sim.CheckVectors(f, userAttrs); err != nil {
		return nil, fmt.Errorf("core: user %d: %w", i, err)
	}
	in.usersKernel = sim.NewKernel(userAttrs, f)
	in.eventsKernel = sim.NewKernel(eventAttrs, f)
	return in, nil
}

// NewMatrixInstance builds an instance with explicit similarity values.
// matrix must be |events| × |users| with entries in [0, 1].
func NewMatrixInstance(events []Event, users []User, conflicts *conflict.Graph, matrix [][]float64) (*Instance, error) {
	in := &Instance{Events: events, Users: users, Conflicts: conflicts, Matrix: matrix}
	if err := in.check(); err != nil {
		return nil, err
	}
	if len(matrix) != len(events) {
		return nil, fmt.Errorf("core: matrix has %d rows, want %d", len(matrix), len(events))
	}
	for v, row := range matrix {
		if len(row) != len(users) {
			return nil, fmt.Errorf("core: matrix row %d has %d columns, want %d", v, len(row), len(users))
		}
		for u, s := range row {
			if s < 0 || s > 1 {
				return nil, fmt.Errorf("core: similarity (%d, %d) = %v outside [0, 1]", v, u, s)
			}
		}
	}
	return in, nil
}

// check validates the pieces common to both constructors.
func (in *Instance) check() error {
	for i, e := range in.Events {
		if e.Cap < 0 {
			return fmt.Errorf("core: event %d has negative capacity %d", i, e.Cap)
		}
	}
	for i, u := range in.Users {
		if u.Cap < 0 {
			return fmt.Errorf("core: user %d has negative capacity %d", i, u.Cap)
		}
	}
	if in.Conflicts != nil && in.Conflicts.N() != len(in.Events) {
		return fmt.Errorf("core: conflict graph covers %d events, instance has %d", in.Conflicts.N(), len(in.Events))
	}
	return nil
}

// Sub builds the sub-instance over the parent events and users listed, in
// their order: sub event i is Events[events[i]], sub user j is
// Users[users[j]]. Similarities are bit-identical to in's (the sub's
// kernels reproduce the similarity function exactly, matrix entries are
// copied), so a sub matching lifted to parent ids validates against in. A
// conflict is kept when both its events are listed, in the order of the
// parent's adjacency; a nil conflict graph stays nil. evSub is parent-to-sub
// scratch of length NumEvents: only the listed entries are written, and
// membership is read back through events, so it needs no reset between
// calls.
func (in *Instance) Sub(events, users, evSub []int) (*Instance, error) {
	for i, v := range events {
		evSub[v] = i
	}
	subEvents := make([]Event, len(events))
	for i, v := range events {
		subEvents[i] = in.Events[v]
	}
	subUsers := make([]User, len(users))
	for i, u := range users {
		subUsers[i] = in.Users[u]
	}
	var cf *conflict.Graph
	if in.Conflicts != nil {
		cf = conflict.New(len(events))
		for i, v := range events {
			for _, w := range in.Conflicts.Neighbors(v) {
				if k := evSub[w]; v < w && k < len(events) && events[k] == w {
					cf.Add(i, k)
				}
			}
		}
	}
	if in.Matrix == nil {
		return NewInstance(subEvents, subUsers, cf, in.SimFunc)
	}
	matrix := make([][]float64, len(events))
	for i, v := range events {
		row := make([]float64, len(users))
		for j, u := range users {
			row[j] = in.Matrix[v][u]
		}
		matrix[i] = row
	}
	return NewMatrixInstance(subEvents, subUsers, cf, matrix)
}

// NumEvents returns |V|.
func (in *Instance) NumEvents() int { return len(in.Events) }

// NumUsers returns |U|.
func (in *Instance) NumUsers() int { return len(in.Users) }

// Similarity returns sim(l_v, l_u) for event v and user u.
func (in *Instance) Similarity(v, u int) float64 {
	if in.Matrix != nil {
		return in.Matrix[v][u]
	}
	if k := in.kernelOverUsers(); k != nil {
		return k.Sim(in.Events[v].Attrs, u)
	}
	return in.SimFunc(in.Events[v].Attrs, in.Users[u].Attrs)
}

// kernelOverUsers returns the batched kernel over user attribute vectors, or
// nil when it is unavailable or stale. Staleness happens when Users was
// replaced after construction (e.g. the bench harness truncates a copied
// instance without re-running NewInstance); the length check keeps such
// copies on the always-correct SimFunc path.
func (in *Instance) kernelOverUsers() *sim.Kernel {
	if in.usersKernel != nil && in.usersKernel.Len() == len(in.Users) {
		return in.usersKernel
	}
	return nil
}

// kernelOverEvents is kernelOverUsers for the event side.
func (in *Instance) kernelOverEvents() *sim.Kernel {
	if in.eventsKernel != nil && in.eventsKernel.Len() == len(in.Events) {
		return in.eventsKernel
	}
	return nil
}

// SimilarityRow fills out[u] = Similarity(v, u) for every user, batching
// through the kernel when available. len(out) must be NumUsers(). The
// decomposition layer (internal/decomp) scans these rows to build the
// positive-similarity union graph; values are bit-identical to per-pair
// Similarity calls, so sub-instance matchings validate against the parent.
func (in *Instance) SimilarityRow(v int, out []float64) {
	in.similarityRow(v, out)
}

// similarityRow fills out[u] = Similarity(v, u) for every user, batching
// through the kernel when available. len(out) must be NumUsers().
func (in *Instance) similarityRow(v int, out []float64) {
	if in.Matrix != nil {
		copy(out, in.Matrix[v])
		return
	}
	if k := in.kernelOverUsers(); k != nil {
		k.SimBatch(in.Events[v].Attrs, 0, len(in.Users), out)
		return
	}
	for u := range in.Users {
		out[u] = in.SimFunc(in.Events[v].Attrs, in.Users[u].Attrs)
	}
}

// similarityColumn fills out[v] = Similarity(v, u) for every event, batching
// through the kernel when available. len(out) must be NumEvents().
func (in *Instance) similarityColumn(u int, out []float64) {
	if in.Matrix != nil {
		for v := range in.Events {
			out[v] = in.Matrix[v][u]
		}
		return
	}
	// Columns evaluate f(user, event); the recognized built-ins are bitwise
	// symmetric so the swap is invisible, but a custom Func only promises
	// semantic symmetry — keep it on the original f(event, user) orientation.
	if k := in.kernelOverEvents(); k != nil && k.Batched() {
		k.SimBatch(in.Users[u].Attrs, 0, len(in.Events), out)
		return
	}
	for v := range in.Events {
		out[v] = in.SimFunc(in.Events[v].Attrs, in.Users[u].Attrs)
	}
}

// Conflicting reports whether events i and j conflict. A nil conflict graph
// means CF = ∅.
func (in *Instance) Conflicting(i, j int) bool {
	return in.Conflicts != nil && in.Conflicts.Conflicting(i, j)
}

// EventAttrs returns the event attribute vectors (nil entries for matrix
// instances).
func (in *Instance) EventAttrs() []sim.Vector {
	out := make([]sim.Vector, len(in.Events))
	for i, e := range in.Events {
		out[i] = e.Attrs
	}
	return out
}

// UserAttrs returns the user attribute vectors.
func (in *Instance) UserAttrs() []sim.Vector {
	out := make([]sim.Vector, len(in.Users))
	for i, u := range in.Users {
		out[i] = u.Attrs
	}
	return out
}
