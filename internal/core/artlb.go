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
	// Horizon is the time horizon the LP was solved over.
	Horizon int
	// Iterations counts simplex pivots.
	Iterations int
	// LP is the solver's stage breakdown of the solve.
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
// schedule; the paper's Figure 6 uses it as the baseline. The LP is solved
// once, over the rounds before inst.CongestionHorizon(), where it is always
// feasible (see there: spreading every flow evenly over the rounds after
// the last release satisfies (2) and (3)). Only the optimum is used, never
// the vertex, so the solve is crash-started: it begins at the first-fit
// schedule in release order with the placed flows basic on their covering
// rows, and spends no pivot on phase 1 when every flow is placed
// (LP.StartAtUpper counts the flows placed, LP.StartBasic those in the
// starting basis).
func ARTLowerBound(inst *switchnet.Instance) (*ARTLowerBoundResult, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if inst.N() == 0 {
		return &ARTLowerBoundResult{}, nil
	}
	horizon := inst.CongestionHorizon()
	p, start := artLowerBoundLP(inst, horizon)
	sol, err := p.SolveWith(lp.SolveOptions{Start: start})
	if err != nil {
		return nil, fmt.Errorf("core: ART lower-bound LP at horizon %d: %w", horizon, err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: ART lower-bound LP at horizon %d: status %v (%s)",
			horizon, sol.Status, describeLP(sol.Stats))
	}
	return &ARTLowerBoundResult{
		TotalResponse: sol.Obj,
		Horizon:       horizon,
		Iterations:    sol.Iterations,
		LP:            sol.Stats,
	}, nil
}

// describeLP names a solve for an error message: its size and what the
// solver spent on it.
func describeLP(st lp.Stats) string {
	return fmt.Sprintf("%d rows, %d cols, %d pivots, %d perturbations",
		st.Rows, st.Cols, st.Pivots(), st.Perturbations)
}

// artLowerBoundLP builds LP (1)-(4) over rounds [r_e, horizon) together
// with the point its solve starts from: b_et = d_e where firstFit, in
// release order, places flow e.
func artLowerBoundLP(inst *switchnet.Instance, horizon int) (*lp.Problem, []float64) {
	ix := newTimeIndex(inst, fromRelease(inst, horizon), 1)
	p := lp.NewProblem(ix.len())
	for j, f := range ix.flow {
		e := inst.Flows[f]
		kappa := inst.Kappa(f)
		cost := float64(ix.round[j]-e.Release)/float64(e.Demand) + 1/(2*float64(kappa))
		p.SetCost(j, cost)
		// b_et <= d_e is implied at any optimum (costs are positive) and
		// tightens the relaxation the simplex must explore.
		p.SetBounds(j, 0, float64(e.Demand))
	}
	// Constraint (2): full demand scheduled.
	for f, e := range inst.Flows {
		a, b := ix.off[f], ix.off[f+1]
		p.AddRow(ix.ident[a:b], ix.ones[a:b], lp.GE, float64(e.Demand))
	}
	// Constraint (3): per-port per-round capacity.
	rows := newPortRows(inst, ix)
	for k, port := range rows.port {
		a, b := rows.start[k], rows.start[k+1]
		p.AddRow(rows.vars[a:b], ix.ones[:b-a], lp.LE, float64(inst.Switch.Cap(port)))
	}
	start := make([]float64, ix.len())
	for f, j := range firstFit(inst, releaseOrder(inst), ix) {
		if j >= 0 {
			start[j] = float64(inst.Flows[f].Demand)
		}
	}
	return p, start
}
