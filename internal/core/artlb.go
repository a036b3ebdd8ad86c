package core

import (
	"fmt"

	"flowsched/internal/lp"
	"flowsched/internal/switchnet"
)

// ARTLowerBoundResult carries the LP (1)-(4) lower bound on total response
// time together with solve diagnostics.
type ARTLowerBoundResult struct {
	// TotalResponse is the LP optimum, a lower bound on the total
	// response time of any schedule (Lemma 3.1).
	TotalResponse float64
	// Horizon is the horizon the LP was solved over: the round after the
	// last one first fit uses, where the optimum's duals certify that no
	// later round prices out, and inst.CongestionHorizon() otherwise. It
	// lies in [MaxRelease+1, CongestionHorizon].
	Horizon int
	// Iterations counts simplex pivots.
	Iterations int
	// LP is the solver's stage breakdown of the solve — of both solves when
	// the first was not certified and the LP was solved again at
	// CongestionHorizon.
	LP lp.Stats
}

// ARTLowerBound solves the fractional relaxation (1)-(4):
//
//	min  sum_e sum_{t>=r_e} ((t-r_e)/d_e + 1/(2*kappa_e)) * b_et
//	s.t. sum_t b_et >= d_e           for every flow
//	     sum_{e in F_p} b_et <= c_p  for every port and round
//	     b_et >= 0
//
// By Lemma 3.1 the optimum lower-bounds the total response time of every
// schedule; the paper's Figure 6 uses it as the baseline. Only the optimum is
// used, never the vertex. The LP is solved over the rounds first fit in
// release order uses (solveOverFirstFit), crash-started at that schedule with
// the placed flows basic on their covering rows, so phase 1 has nothing to do
// (LP.StartAtUpper counts the flows placed, LP.StartBasic those in the
// starting basis). That optimum is the LP's over every longer horizon when
// the duals price every later round out (pricedOut). When they do not, or
// first fit cannot place every flow before inst.CongestionHorizon(), the LP
// is solved once over the rounds before CongestionHorizon, where it is always
// feasible (see there: spreading every flow evenly over the rounds after the
// last release satisfies (2) and (3)), and is the full LP.
func ARTLowerBound(inst *switchnet.Instance) (*ARTLowerBoundResult, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if inst.N() == 0 {
		return &ARTLowerBoundResult{}, nil
	}
	ws := getWorkspace()
	defer ws.put()
	sol, horizon, st, err := ws.solveOverFirstFit(inst, artLayout, "ART lower-bound LP")
	if err != nil {
		return nil, err
	}
	return &ARTLowerBoundResult{TotalResponse: sol.Obj, Horizon: horizon, Iterations: st.Pivots(), LP: st}, nil
}

// describeLP names a solve for an error message: its size and what the
// solver spent on it.
func describeLP(st lp.Stats) string {
	return fmt.Sprintf("%d rows, %d cols, %d pivots, %d perturbations",
		st.Rows, st.Cols, st.Pivots(), st.Perturbations)
}

// artCost is the cost of b_et in LP (1)-(4), (t-r_e)/d_e + 1/(2*kappa_e).
// The LP is artLayout: b_et <= d_e is implied at any optimum (costs are
// positive) and tightens the relaxation the simplex must explore.
func artCost(inst *switchnet.Instance, f, t int) float64 {
	e := inst.Flows[f]
	return float64(t-e.Release)/float64(e.Demand) + 1/(2*float64(inst.Kappa(f)))
}
