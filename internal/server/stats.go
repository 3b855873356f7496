package server

import (
	"net/http"
	"time"

	"github.com/ebsnlab/geacc/internal/core"
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
	// RelaxedUpperBound is the Corollary 1 conflict-relaxed optimum; Gap is
	// (bound - max_sum) / bound, 0 when the bound is 0. Each request still
	// solves the relaxation once, monolithically (the arranger caches no
	// bound), which is why the endpoint sits behind admission control.
	RelaxedUpperBound float64 `json:"relaxed_upper_bound"`
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

// handleInstanceStats answers GET /instances/{id}/stats. It holds the
// instance lock for a relaxation solve — solver-sized work, so it is
// admitted like /solve and rebalance (before the id lookup, so overload
// sheds cheaply) and sheds with 429 + Retry-After. The component counts
// come from the arranger's kept union graph and materialize nothing.
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

	// The quality view needs a snapshot of the arranger; an empty instance
	// has nothing to bound or decompose.
	if st.Events > 0 || st.Users > 0 {
		in, _, err := inst.Arr.Snapshot()
		if err != nil {
			writeError(w, r, http.StatusInternalServerError, err)
			return
		}
		if st.RelaxedUpperBound, err = core.RelaxedUpperBoundCtx(r.Context(), in); err != nil {
			writeError(w, r, solveErrorStatus(err, http.StatusInternalServerError), err)
			return
		}
		if st.RelaxedUpperBound > 0 {
			st.Gap = (st.RelaxedUpperBound - st.MaxSum) / st.RelaxedUpperBound
			if st.Gap < 0 {
				st.Gap = 0
			}
		}
		d, err := decomp.KeptComponents(r.Context(), inst.Arr)
		if err != nil {
			writeError(w, r, solveErrorStatus(err, http.StatusInternalServerError), err)
			return
		}
		st.ComponentsTotal = len(d.Components)
		st.DirtyComponents = len(d.DirtyComponents(st.DirtyEvents, st.DirtyUsers))
	}

	writeJSON(w, r, st)
}
