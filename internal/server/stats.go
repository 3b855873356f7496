package server

import (
	"net/http"
	"time"

	"github.com/ebsnlab/geacc/internal/decomp"
)

// RebalanceOutcome is one completed rebalance as remembered by the
// instance's bounded history ring (GET /instances/{id}/stats). RequestID
// names the request that ran it, so an odd outcome in the ring leads
// straight to its log lines.
type RebalanceOutcome struct {
	Time             time.Time `json:"time"`
	RequestID        string    `json:"request_id,omitempty"`
	Scope            string    `json:"scope"`
	Algo             string    `json:"algo"`
	ComponentsSolved int       `json:"components_solved"`
	ComponentsTotal  int       `json:"components_total"`
	Gain             float64   `json:"gain"`
	Adopted          bool      `json:"adopted"`
	Seconds          float64   `json:"seconds"`
}

// InstanceStats is the GET /instances/{id}/stats payload: the operational
// deep-dive the summary endpoints don't carry — solution quality against
// the Corollary 1 relaxation bound, write-ahead-log drift since the last
// snapshot, pending dirty work, lifetime op counts, and the recent
// rebalance history.
type InstanceStats struct {
	ID     string  `json:"id"`
	Events int     `json:"events"`
	Users  int     `json:"users"`
	Pairs  int     `json:"pairs"`
	MaxSum float64 `json:"max_sum"`
	// RelaxedUpperBound is the arranger's kept upper bound on the
	// Corollary 1 conflict-relaxed optimum, summed over components: each
	// component's exact relaxed optimum from its last min-cost-flow
	// rebalance, plus what arrivals priced in since (DESIGN.md, "Kept
	// relaxation bound"). No request solves a flow. BoundUpdates counts the
	// arrivals, cancels and removes the components' bounds took since their
	// last flow solve; at 0 the bound is the exact relaxed optimum, up to
	// rounding. Gap is (bound - max_sum) / bound, 0 when the bound is 0.
	RelaxedUpperBound float64 `json:"relaxed_upper_bound"`
	BoundUpdates      int     `json:"bound_updates"`
	Gap               float64 `json:"gap"`

	// Persistence drift: how far the write-ahead log has grown past the
	// snapshot a restart would start from. Zero-valued when the instance is
	// ephemeral (Persistent false).
	Persistent         bool    `json:"persistent"`
	Seq                int64   `json:"seq"`
	SnapshotSeq        int64   `json:"snapshot_seq"`
	OpsSinceSnapshot   int     `json:"ops_since_snapshot"`
	BytesSinceSnapshot int64   `json:"bytes_since_snapshot"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds,omitempty"`

	// Pending incremental work: the dirty marks the next scope=dirty
	// rebalance will consume, and how many decomposition components they
	// land in out of the current total.
	DirtyEvents     []int `json:"dirty_events"`
	DirtyUsers      []int `json:"dirty_users"`
	DirtyComponents int   `json:"dirty_components"`
	ComponentsTotal int   `json:"components_total"`

	OpCounts         map[string]int64   `json:"op_counts"`
	RecentRebalances []RebalanceOutcome `json:"recent_rebalances"`

	// WarmFlowEntries counts the min-cost-flow component states held for
	// warm-started re-solves (this process; the cache starts cold after a
	// restart).
	WarmFlowEntries int `json:"warm_flow_entries,omitempty"`
}

// handleInstanceStats answers GET /instances/{id}/stats. The bound and
// the component counts come from the arranger's kept union graph: no
// snapshot, no flow, nothing materialized. The read still extends that
// graph by the nodes added since the last one, which after a restart is
// one scan of every similarity, so it is admitted like /solve and
// rebalance (before the id lookup, so overload sheds cheaply) and sheds
// with 429 + Retry-After.
func (s *service) handleInstanceStats(w http.ResponseWriter, r *http.Request) {
	if !s.gateReady(w, r) {
		return
	}
	release, admitted := s.admit(w, r)
	if !admitted {
		return
	}
	defer release()
	inst, ok := s.get(w, r, r.PathValue("id"))
	if !ok || !inst.lock(w, r) {
		return
	}
	defer inst.mu.Unlock()

	st := InstanceStats{
		ID:       inst.Meta.ID,
		Events:   inst.Arr.NumEvents(),
		Users:    inst.Arr.NumUsers(),
		Pairs:    inst.Arr.NumPairs(),
		MaxSum:   inst.Arr.MaxSum(),
		OpCounts: inst.OpCounts(),
	}
	st.DirtyEvents, st.DirtyUsers = inst.Dirty()
	st.RecentRebalances = append([]RebalanceOutcome{}, inst.rebalances...)
	if inst.warm != nil {
		st.WarmFlowEntries = inst.warm.Len()
	}

	if inst.Log != nil {
		st.Persistent = true
		st.Seq = inst.Log.Seq()
		st.SnapshotSeq = inst.Log.SnapshotSeq()
		st.OpsSinceSnapshot = inst.Log.OpsSinceSnapshot()
		st.BytesSinceSnapshot = inst.Log.BytesSinceSnapshot()
		if at := inst.Log.SnapshotAt(); !at.IsZero() {
			st.SnapshotAgeSeconds = time.Since(at).Seconds()
		}
	}

	// An empty instance has nothing to bound or decompose.
	if st.Events > 0 || st.Users > 0 {
		d, err := decomp.KeptComponents(r.Context(), inst.Arr)
		if err != nil {
			writeError(w, r, solveErrorStatus(err, http.StatusInternalServerError), err)
			return
		}
		st.ComponentsTotal = len(d.Components)
		st.DirtyComponents = len(d.DirtyComponents(st.DirtyEvents, st.DirtyUsers))
		st.RelaxedUpperBound, st.BoundUpdates = d.KeptBound(inst.Arr)
		if st.RelaxedUpperBound > 0 {
			st.Gap = max(0, (st.RelaxedUpperBound-st.MaxSum)/st.RelaxedUpperBound)
		}
	}

	writeJSON(w, r, st)
}
