package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/server"
)

// checker accumulates the client-side verdicts on buffered responses and a
// SHA-256 digest of every returned matching, so two runs can be compared
// for identical outputs.
type checker struct {
	failed int
	msgs   []string
	digest hash.Hash
}

func newChecker() *checker { return &checker{digest: sha256.New()} }

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) hashJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain decoded response structs always marshal
	}
	c.digest.Write(b)
	c.digest.Write([]byte{'\n'})
}

func (c *checker) sum() string { return hex.EncodeToString(c.digest.Sum(nil)) }

// relClose reports |a−b| ≤ 1e-9 relative to the larger magnitude (or 1).
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkMatching rebuilds a returned matching against the instance it
// answers: feasible under core.Validate (capacities, conflicts, sim > 0 and
// equal to the instance's), with a MaxSum that recomputes from the
// instance's similarities.
func checkMatching(in *core.Instance, mj encoding.MatchingJSON) error {
	m := core.NewMatching()
	var sum float64
	for _, p := range mj.Pairs {
		if m.Contains(p.V, p.U) {
			return fmt.Errorf("duplicate pair (%d, %d)", p.V, p.U)
		}
		if p.V < 0 || p.V >= in.NumEvents() || p.U < 0 || p.U >= in.NumUsers() {
			return fmt.Errorf("pair (%d, %d) out of range", p.V, p.U)
		}
		m.Add(p.V, p.U, p.Sim)
		sum += in.Similarity(p.V, p.U)
	}
	if err := core.Validate(in, m); err != nil {
		return err
	}
	if !relClose(sum, mj.MaxSum) {
		return fmt.Errorf("max_sum %v, recomputed %v", mj.MaxSum, sum)
	}
	return nil
}

// checkSolveLane checks every response of one /solve lane, set-up
// included, and returns the MaxSum of each measured response. Fresh
// answers are validated against the regenerated instance; a repeat must
// return the very matching its original did.
func checkSolveLane(c *checker, s *solveSpec, ls laneStream, setup, resps []response) []float64 {
	for i, r := range ls.setup {
		var sr server.SolveResponse
		if err := json.Unmarshal(setup[i].body, &sr); err != nil {
			c.fail("set-up solve: bad body: %v", err)
		} else if err := checkFresh(s, r, sr); err != nil {
			c.fail("set-up solve: %v", err)
		}
	}
	var sums []float64
	canon := make([][]byte, len(resps))
	for i, r := range ls.reqs {
		resp := resps[i]
		if !resp.ok() {
			c.fail("%s #%d: status %d: %v %s", r.kind, i, resp.status, resp.err, bytes.TrimSpace(resp.body))
			continue
		}
		var sr server.SolveResponse
		if err := json.Unmarshal(resp.body, &sr); err != nil {
			c.fail("%s #%d: bad body: %v", r.kind, i, err)
			continue
		}
		canon[i], _ = json.Marshal(sr.Matching)
		if r.kind == opRepeat {
			if !bytes.Equal(canon[i], canon[r.of]) {
				c.fail("repeat #%d: matching differs from request #%d", i, r.of)
				continue
			}
		} else if err := checkFresh(s, r, sr); err != nil {
			c.fail("solve #%d: %v", i, err)
			continue
		}
		c.digest.Write(canon[i])
		if sr.Diagnostics != nil {
			c.hashJSON([]float64{sr.Diagnostics.RelaxedUpperBound, sr.Diagnostics.Gap})
		}
		if i >= ls.warm {
			sums = append(sums, sr.Matching.MaxSum)
		}
	}
	return sums
}

func checkFresh(s *solveSpec, r request, sr server.SolveResponse) error {
	in, err := s.gen(r.instSeed)
	if err != nil {
		return err
	}
	if sr.Events != in.NumEvents() || sr.Users != in.NumUsers() {
		return fmt.Errorf("shape %dx%d, sent %dx%d", sr.Events, sr.Users, in.NumEvents(), in.NumUsers())
	}
	if err := checkMatching(in, sr.Matching); err != nil {
		return err
	}
	if s.diag {
		d := sr.Diagnostics
		if d == nil {
			return fmt.Errorf("diag requested, none returned")
		}
		if d.Gap < 0 || d.Gap > 1 {
			return fmt.Errorf("gap %v outside [0, 1]", d.Gap)
		}
		if sr.Matching.MaxSum > d.RelaxedUpperBound*(1+1e-9) {
			return fmt.Errorf("max_sum %v above the relaxation bound %v", sr.Matching.MaxSum, d.RelaxedUpperBound)
		}
	}
	return nil
}

// checkDeltaLane walks one instance-deltas lane, set-up included, in send
// order: every op must succeed, arrivals must get the ids the generator
// predicted, and the log sequence must advance by one per logged op.
func checkDeltaLane(c *checker, ls laneStream, setup, resps []response) {
	var seq int64
	all := append(append([]request(nil), ls.setup...), ls.reqs...)
	got := append(append([]response(nil), setup...), resps...)
	for i, r := range all {
		resp := got[i]
		if !resp.ok() {
			c.fail("%s %s: status %d: %v %s", r.kind, ls.id, resp.status, resp.err, bytes.TrimSpace(resp.body))
			continue
		}
		var err error
		switch r.kind {
		case opCreate:
			var s server.InstanceSummary
			err = json.Unmarshal(resp.body, &s)
			seq = s.Seq
		case opAddEvent, opAddUser, opCancelEvent, opCancelUser:
			var d server.DeltaResponse
			if err = json.Unmarshal(resp.body, &d); err == nil {
				switch {
				case d.Seq != seq+1:
					err = fmt.Errorf("seq %d after %d", d.Seq, seq)
				case (r.kind == opAddEvent || r.kind == opAddUser) && (d.ID == nil || *d.ID != r.wantID):
					err = fmt.Errorf("arrival got id %v, want %d", d.ID, r.wantID)
				}
				seq = d.Seq
				c.digest.Write(resp.body)
			}
		case opRebalance:
			var rb server.RebalanceResponse
			if err = json.Unmarshal(resp.body, &rb); err == nil {
				if rb.Seq != seq+1 {
					err = fmt.Errorf("seq %d after %d", rb.Seq, seq)
				} else if rb.Gain < 0 {
					err = fmt.Errorf("negative gain %v", rb.Gain)
				}
				seq = rb.Seq
				c.hashJSON([]any{rb.Seq, rb.MaxSum, rb.Gain, rb.ComponentsSolved, rb.ComponentsTotal, rb.Adopted})
			}
		case opStats:
			var st server.InstanceStats
			if err = json.Unmarshal(resp.body, &st); err == nil {
				if st.Gap < 0 || st.Gap > 1 || st.MaxSum > st.RelaxedUpperBound*(1+1e-9) {
					err = fmt.Errorf("max_sum %v, bound %v, gap %v", st.MaxSum, st.RelaxedUpperBound, st.Gap)
				}
				c.hashJSON([]any{st.MaxSum, st.RelaxedUpperBound, st.Gap, st.Pairs, st.DirtyComponents, st.ComponentsTotal})
			}
		}
		if err != nil {
			c.fail("%s %s #%d: %v", r.kind, ls.id, i, err)
		}
	}
}

// checkFinal validates the arrangement GET /instances/{id} returned
// against the instance the lane's stream built, and returns its MaxSum.
func checkFinal(c *checker, ls laneStream, body []byte) float64 {
	var st server.InstanceStatus
	if err := json.Unmarshal(body, &st); err != nil {
		c.fail("final %s: bad body: %v", ls.id, err)
		return 0
	}
	if st.Events != ls.final.NumEvents() || st.Users != ls.final.NumUsers() {
		c.fail("final %s: %d events, %d users; sent %d, %d", ls.id, st.Events, st.Users,
			ls.final.NumEvents(), ls.final.NumUsers())
		return 0
	}
	if err := checkMatching(ls.final, st.Matching); err != nil {
		c.fail("final %s: %v", ls.id, err)
		return 0
	}
	c.digest.Write(body)
	return st.Matching.MaxSum
}
