package core

import "fmt"

// LocalSearchOptions tunes LocalSearch. The zero value uses sane defaults.
type LocalSearchOptions struct {
	// MaxRounds caps improvement sweeps; <= 0 means 100. Each round scans
	// every (event, user) pair once, so the worst case is
	// O(MaxRounds · |V| · |U| · c) where c is the per-move feasibility
	// check.
	MaxRounds int
}

// LocalSearchStats reports what LocalSearch did.
type LocalSearchStats struct {
	Rounds       int
	Additions    int
	Replacements int
	Swaps        int
	Gain         float64
}

// LocalSearch improves a feasible matching by first-improvement moves until
// a local optimum (or the round cap):
//
//   - add: insert an unmatched feasible pair (positive gain by definition);
//   - replace-user: swap (v, u) for (v, u') when u' values v strictly more
//     and can take it;
//   - replace-event: swap (v, u) for (v', u) when u values v' strictly more
//     and v' has room;
//   - 2-swap: exchange the users of two pairs, (v₁,u₁),(v₂,u₂) →
//     (v₁,u₂),(v₂,u₁), when the total similarity strictly rises and both
//     new pairs are feasible — the move that escapes local optima the
//     1-exchanges cannot (no free capacity needed anywhere).
//
// It never returns a matching worse than its input, preserves feasibility,
// and is a post-processing extension to the paper's algorithms: the greedy
// result is maximal but 1-exchange moves can still reshuffle capacity to
// higher-value pairs (see BenchmarkLocalSearch for measured gains).
func LocalSearch(in *Instance, start *Matching, opt LocalSearchOptions) (*Matching, LocalSearchStats, error) {
	localSearchRuns.Inc()
	if err := Validate(in, start); err != nil {
		return nil, LocalSearchStats{}, fmt.Errorf("core: local search needs a feasible start: %w", err)
	}
	maxRounds := opt.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 100
	}
	m := start.Clone()
	capV := make([]int, in.NumEvents())
	capU := make([]int, in.NumUsers())
	for v, e := range in.Events {
		capV[v] = e.Cap - len(m.EventUsers(v))
	}
	for u, usr := range in.Users {
		capU[u] = usr.Cap - len(m.UserEvents(u))
	}
	var stats LocalSearchStats
	before := m.MaxSum()
	// Scratch for batched similarity scans: phases 1 and 2 consume whole
	// rows (an event against every user) and columns (a user against every
	// event), which the instance kernel fills in one pass.
	rowBuf := make([]float64, in.NumUsers())
	colBuf := make([]float64, in.NumEvents())

	conflictsFor := func(v, u int, ignoring int) bool {
		for _, w := range m.UserEvents(u) {
			if w == ignoring {
				continue
			}
			if in.Conflicting(v, w) {
				return true
			}
		}
		return false
	}

	for stats.Rounds = 0; stats.Rounds < maxRounds; stats.Rounds++ {
		improved := false
		// Phase 1: additions.
		for v := 0; v < in.NumEvents(); v++ {
			if capV[v] == 0 {
				continue
			}
			in.similarityRow(v, rowBuf)
			for u := 0; u < in.NumUsers(); u++ {
				if capU[u] == 0 || m.Contains(v, u) {
					continue
				}
				s := rowBuf[u]
				if s <= 0 || conflictsFor(v, u, -1) {
					continue
				}
				m.Add(v, u, s)
				capV[v]--
				capU[u]--
				stats.Additions++
				improved = true
				if capV[v] == 0 {
					break
				}
			}
		}
		// Phase 2: 1-exchange replacements. Work over a snapshot of the
		// current pairs; each applied move drops its pair in place.
		for _, p := range append([]Assignment(nil), m.Pairs()...) {
			if !m.Contains(p.V, p.U) {
				continue // removed by an earlier move this round
			}
			// replace-user: give v's seat to a better-matching user.
			in.similarityRow(p.V, rowBuf)
			bestU, bestUS := -1, p.Sim
			for u := 0; u < in.NumUsers(); u++ {
				if capU[u] == 0 || m.Contains(p.V, u) {
					continue
				}
				s := rowBuf[u]
				if s > bestUS && !conflictsFor(p.V, u, -1) {
					bestU, bestUS = u, s
				}
			}
			// replace-event: move u's slot to a better event.
			in.similarityColumn(p.U, colBuf)
			bestV, bestVS := -1, p.Sim
			for v := 0; v < in.NumEvents(); v++ {
				if capV[v] == 0 || m.Contains(v, p.U) {
					continue
				}
				s := colBuf[v]
				if s > bestVS && !conflictsFor(v, p.U, p.V) {
					bestV, bestVS = v, s
				}
			}
			if bestU == -1 && bestV == -1 {
				continue
			}
			// Apply the better of the two exchanges.
			m.dropPair(p.V, p.U)
			if bestUS >= bestVS && bestU != -1 {
				m.Add(p.V, bestU, bestUS)
				capU[bestU]--
				capU[p.U]++
			} else {
				m.Add(bestV, p.U, bestVS)
				capV[bestV]--
				capV[p.V]++
			}
			stats.Replacements++
			improved = true
		}
		// Phase 3: 2-swaps over the current pair snapshot.
		pairs := append([]Assignment(nil), m.Pairs()...)
		for i := 0; i < len(pairs); i++ {
			p1 := pairs[i]
			if !m.Contains(p1.V, p1.U) {
				continue
			}
			for j := i + 1; j < len(pairs); j++ {
				p2 := pairs[j]
				if !m.Contains(p1.V, p1.U) {
					break // p1 was swapped away by an earlier j
				}
				if !m.Contains(p2.V, p2.U) || p1.V == p2.V || p1.U == p2.U {
					continue
				}
				s12 := in.Similarity(p1.V, p2.U)
				s21 := in.Similarity(p2.V, p1.U)
				if s12 <= 0 || s21 <= 0 {
					continue
				}
				if s12+s21 <= p1.Sim+p2.Sim+1e-12 {
					continue
				}
				if m.Contains(p1.V, p2.U) || m.Contains(p2.V, p1.U) {
					continue
				}
				// Feasibility after removing both old pairs: u2 joins v1,
				// u1 joins v2; each must clear conflicts against the user's
				// other events.
				if conflictsFor(p1.V, p2.U, p2.V) || conflictsFor(p2.V, p1.U, p1.V) {
					continue
				}
				m.dropPair(p1.V, p1.U)
				m.dropPair(p2.V, p2.U)
				m.Add(p1.V, p2.U, s12)
				m.Add(p2.V, p1.U, s21)
				stats.Swaps++
				improved = true
				p1 = Assignment{V: p1.V, U: p2.U, Sim: s12} // continue from the new pair
			}
		}
		if !improved {
			break
		}
	}
	stats.Gain = m.MaxSum() - before
	localSearchRounds.Add(int64(stats.Rounds))
	observeLocalSearchMoves(stats)
	if err := Validate(in, m); err != nil {
		return nil, stats, fmt.Errorf("core: local search broke feasibility: %w", err)
	}
	return m, stats, nil
}
