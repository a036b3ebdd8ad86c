package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"flowsched/internal/lp"
	"flowsched/internal/switchnet"
)

const (
	zeroTol     = 1e-7 // LP values below this are dropped from the support
	integralTol = 1e-6 // values within this of d_e count as integral
)

// PseudoSchedule is the output of the iterative rounding of Lemma 3.3: an
// assignment of every flow to a single round whose cost is at most the
// optimum of the interval LP (5)-(8), and whose per-port load over any time
// interval exceeds cp*(interval length) by only O(cp log n).
type PseudoSchedule struct {
	// Round[f] is the round assigned to flow f.
	Round []int
	// LPValue is the optimum of LP (5)-(8), a lower bound on the total
	// response time of any schedule.
	LPValue float64
	// RoundingIterations counts LP re-solves (Lemma 3.5 bounds this by
	// O(log n)).
	RoundingIterations int
	// ForcedFixes counts degeneracy-safeguard fixes (0 in practice;
	// tests assert this).
	ForcedFixes int
	// LPIterations totals simplex pivots across all LP solves.
	LPIterations int
	// LP sums the solver's stage breakdown over the same solves.
	LP lp.Stats
}

// addSolve accounts one LP solve of the rounding.
func (ps *PseudoSchedule) addSolve(st lp.Stats) {
	ps.LPIterations += st.Pivots()
	ps.LP.Add(st)
}

// TotalResponse returns the total response time of the pseudo-schedule.
func (ps *PseudoSchedule) TotalResponse(inst *switchnet.Instance) int {
	total := 0
	for f, t := range ps.Round {
		total += t + 1 - inst.Flows[f].Release
	}
	return total
}

// entry is one surviving LP variable during iterative rounding.
type entry struct {
	flow  int
	round int
	val   float64
}

// IterativeRound runs the iterative LP rounding of Section 3.1 on a
// unit-demand instance, producing a pseudo-schedule per Lemma 3.3.
func IterativeRound(inst *switchnet.Instance) (*PseudoSchedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if err := requireUnitDemands(inst); err != nil {
		return nil, err
	}
	ws := getWorkspace()
	defer ws.put()
	ps := new(PseudoSchedule)
	if err := ws.iterativeRound(inst, ps); err != nil {
		return nil, err
	}
	return ps, nil
}

// iterativeRound is IterativeRound on a valid unit-demand instance, in ws's
// memory, into ps, which it overwrites whole, keeping the capacity of
// ps.Round.
func (ws *workspace) iterativeRound(inst *switchnet.Instance, ps *PseudoSchedule) error {
	n := inst.N()
	*ps = PseudoSchedule{Round: grow(ps.Round, n)}
	for f := range ps.Round {
		ps.Round[f] = switchnet.Unscheduled
	}
	if n == 0 {
		return nil
	}

	// LP(0): interval constraints of width 4 with capacity 4*c_p (7).
	entries, lpVal, st, err := ws.solveInitialIntervalLP(inst)
	if err != nil {
		return err
	}
	ps.LPValue = lpVal
	ps.addSolve(st)

	remaining := n
	lastSupport := math.MaxInt
	for remaining > 0 {
		ps.RoundingIterations++
		// Fix integrally-assigned flows (A(l) in the paper).
		progressed := false
		for _, en := range entries {
			if ps.Round[en.flow] != switchnet.Unscheduled {
				continue
			}
			if en.val >= 1-integralTol {
				ps.Round[en.flow] = en.round
				remaining--
				progressed = true
			}
		}
		if remaining == 0 {
			break
		}
		// Keep only the support of still-fractional flows.
		kept := entries[:0]
		for _, en := range entries {
			if ps.Round[en.flow] == switchnet.Unscheduled && en.val > zeroTol {
				kept = append(kept, en)
			}
		}
		entries = kept
		if !progressed && len(entries) >= lastSupport {
			// Degeneracy safeguard: integrally fix the flow with the
			// largest single variable (never triggered at basic optima;
			// counted so tests can assert on it).
			ps.ForcedFixes++
			best := -1
			for i, en := range entries {
				if best < 0 || en.val > entries[best].val {
					best = i
				}
			}
			if best < 0 {
				return fmt.Errorf("core: iterative rounding lost all variables with %d flows left", remaining)
			}
			f := entries[best].flow
			ps.Round[f] = entries[best].round
			remaining--
			kept := entries[:0]
			for _, en := range entries {
				if en.flow != f {
					kept = append(kept, en)
				}
			}
			entries = kept
			lastSupport = math.MaxInt
			if remaining == 0 {
				break
			}
			continue
		}
		lastSupport = len(entries)

		// Build and solve LP(l) over the surviving variables with
		// regrouped intervals (11).
		entries, st, err = ws.solveRegroupedLP(inst, entries)
		if err != nil {
			return err
		}
		ps.addSolve(st)
	}
	return nil
}

// solveInitialIntervalLP solves LP (5)-(8) and returns its support as
// entries, in flow order and each flow's in round order, with the stats of
// the solves; the entries are ws's. It is ARTLowerBound's rule at window
// width 4 (solveOverFirstFit): the LP is solved over the rounds the width-4
// first fit uses, rounded up to whole windows, and that optimum stands when
// its duals price every later round out; otherwise, or when first fit cannot
// place every flow, it is solved once over the rounds before
// inst.CongestionHorizon() — where x_et = 1/h on the h rounds after the last
// release satisfies (6) and (7), so the LP is feasible (see
// CongestionHorizon). Each solve is crash-started at that greedy point: what
// the rounding needs of LP(0) is a basic optimum — Lemma 3.3's interval bound
// and Theorem 1's conversion hold at every one — not the vertex a cold start
// happens to reach, so the pseudo-schedule may differ from a cold solve's
// where the optimum is not unique, at the same LP cost.
func (ws *workspace) solveInitialIntervalLP(inst *switchnet.Instance) ([]entry, float64, lp.Stats, error) {
	sol, horizon, st, err := ws.solveOverFirstFit(inst, intervalLayout, "interval LP")
	if err != nil {
		return nil, 0, st, err
	}
	// The variables are x_et for t in [r_e, horizon), flow by flow.
	entries := ws.entries[:0]
	j := 0
	for f, e := range inst.Flows {
		for t := e.Release; t < horizon; t++ {
			if v := sol.X[j]; v > zeroTol {
				entries = append(entries, entry{f, t, v})
			}
			j++
		}
	}
	ws.entries = entries
	return entries, sol.Obj, st, nil
}

// intervalCost is the cost of x_et in LP (5)-(8), t-r_e+1/2. The LP is
// intervalLayout: a port row per aligned width-4 window is constraint (7),
// the sum over t in [4a, 4a+4) at most 4*c_p, and the start is x_et = 1 at
// the earliest round of the first such window in which both of e's ports
// hold fewer than 4*c_p flows. That point satisfies (6) and (7), so the
// solve has no phase 1 whenever the horizon holds every flow.
func intervalCost(inst *switchnet.Instance, f, t int) float64 {
	return float64(t-inst.Flows[f].Release) + 0.5
}

// solveRegroupedLP builds LP(l) for iteration l >= 1: variables are exactly
// the surviving entries; per-port interval groups are regrown greedily from
// the previous solution until their size first exceeds 4*c_p (Section 3.1).
// The LP is built in ws.lps[0] and solved cold, and the support of its
// optimum overwrites entries, in the same order, and is returned.
//
// The entries are in flow order, as solveInitialIntervalLP writes them and
// every step since keeps them, so each flow's covering row is one run of
// them, and the rows come in ascending flow order.
func (ws *workspace) solveRegroupedLP(inst *switchnet.Instance, entries []entry) ([]entry, lp.Stats, error) {
	m := &ws.lps[0]
	p := &m.p
	p.Reset(len(entries), 3*len(entries), 3*len(entries))
	for j, en := range entries {
		e := inst.Flows[en.flow]
		p.SetCost(j, float64(en.round-e.Release)+0.5)
		p.SetBounds(j, 0, 1)
	}
	// row appends the constraint sum_{j in vars} x_j (sense) rhs.
	row := func(vars []int, sense lp.Sense, rhs float64) {
		idx, val := p.AppendRow(len(vars), sense, rhs)
		copy(idx, vars)
		for k := range val {
			val[k] = 1
		}
	}
	// Flow covering rows: each flow's run of variables, written in place.
	for a := 0; a < len(entries); {
		b := a + 1
		for b < len(entries) && entries[b].flow == entries[a].flow {
			b++
		}
		idx, val := p.AppendRow(b-a, lp.GE, 1)
		for k := range idx {
			idx[k], val[k] = a+k, 1
		}
		a = b
	}
	// Interval groups per port: each port's variables, counted into one run
	// of vars per port in variable order, then sorted by round and flow —
	// a key no two variables of a port share.
	numPorts := inst.Switch.NumPorts()
	ports := func(en entry) [2]int {
		e := inst.Flows[en.flow]
		return [2]int{inst.Switch.PortIndex(switchnet.In, e.In), inst.Switch.PortIndex(switchnet.Out, e.Out)}
	}
	end := zeroed(ws.portEnd, numPorts+1) // where port p's next variable goes
	ws.portEnd = end
	for _, en := range entries {
		for _, port := range ports(en) {
			end[port+1]++
		}
	}
	for port := range numPorts {
		end[port+1] += end[port]
	}
	all := grow(ws.portVars, 2*len(entries))
	ws.portVars = all
	for j, en := range entries {
		for _, port := range ports(en) {
			all[end[port]] = j
			end[port]++
		}
	}
	// Port p's run now ends at end[p], where port p+1's begins.
	lo := 0
	for port := range numPorts {
		vars := all[lo:end[port]]
		lo = end[port]
		if len(vars) == 0 {
			continue
		}
		capP := float64(inst.Switch.Cap(port))
		slices.SortFunc(vars, func(a, b int) int {
			ea, eb := entries[a], entries[b]
			if ea.round != eb.round {
				return cmp.Compare(ea.round, eb.round)
			}
			return cmp.Compare(ea.flow, eb.flow)
		})
		first, size := 0, 0.0
		for k, j := range vars {
			size += entries[j].val
			if size > 4*capP {
				row(vars[first:k+1], lp.LE, size)
				first, size = k+1, 0
			}
		}
		if first < len(vars) {
			row(vars[first:], lp.LE, size)
		}
	}
	sol := &m.sol
	if err := p.SolveInto(sol, lp.SolveOptions{}); err != nil {
		return nil, lp.Stats{}, err
	}
	if sol.Status != lp.Optimal {
		return nil, lp.Stats{}, fmt.Errorf("core: regrouped LP status %v", sol.Status)
	}
	out := entries[:0]
	for j, en := range entries {
		if sol.X[j] > zeroTol {
			out = append(out, entry{en.flow, en.round, sol.X[j]})
		}
	}
	return out, sol.Stats, nil
}
