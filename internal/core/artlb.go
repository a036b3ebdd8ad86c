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
	// LP is the solver's stage breakdown of the solve that produced the
	// bound (like Iterations, it leaves out horizons found infeasible).
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
// schedule; the paper's Figure 6 uses it as the baseline. The horizon is
// grown geometrically until the LP is feasible.
func ARTLowerBound(inst *switchnet.Instance) (*ARTLowerBoundResult, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if inst.N() == 0 {
		return &ARTLowerBoundResult{}, nil
	}
	horizon := inst.CongestionHorizon()
	for attempt := 0; attempt < 8; attempt++ {
		p, _ := artLowerBoundLP(inst, horizon)
		sol, err := p.Solve()
		if err != nil {
			return nil, err
		}
		switch sol.Status {
		case lp.Optimal:
			return &ARTLowerBoundResult{
				TotalResponse: sol.Obj,
				Horizon:       horizon,
				Iterations:    sol.Iterations,
				LP:            sol.Stats,
			}, nil
		case lp.Infeasible:
			horizon *= 2
		default:
			return nil, fmt.Errorf("core: ART lower-bound LP status %v", sol.Status)
		}
	}
	return nil, fmt.Errorf("core: ART lower-bound LP infeasible up to horizon %d", horizon)
}

// artLowerBoundLP builds LP (1)-(4) over rounds [r_e, horizon).
func artLowerBoundLP(inst *switchnet.Instance, horizon int) (*lp.Problem, *varMap) {
	vm := newVarMap()
	for f, e := range inst.Flows {
		for t := e.Release; t < horizon; t++ {
			vm.add(f, t)
		}
	}
	p := lp.NewProblem(vm.len())
	for j := 0; j < vm.len(); j++ {
		k := vm.key(j)
		e := inst.Flows[k.flow]
		kappa := inst.Kappa(k.flow)
		cost := float64(k.round-e.Release)/float64(e.Demand) + 1/(2*float64(kappa))
		p.SetCost(j, cost)
		// b_et <= d_e is implied at any optimum (costs are positive) and
		// tightens the relaxation the simplex must explore.
		p.SetBounds(j, 0, float64(e.Demand))
	}
	// Constraint (2): full demand scheduled.
	for f, e := range inst.Flows {
		var idx []int
		var val []float64
		for t := e.Release; t < horizon; t++ {
			idx = append(idx, vm.byK[varKey{f, t}])
			val = append(val, 1)
		}
		p.AddRow(idx, val, lp.GE, float64(e.Demand))
	}
	// Constraint (3): per-port per-round capacity, rows in deterministic
	// order.
	rows := make(map[portRound][]int)
	for j := 0; j < vm.len(); j++ {
		k := vm.key(j)
		e := inst.Flows[k.flow]
		pIn := inst.Switch.PortIndex(switchnet.In, e.In)
		pOut := inst.Switch.PortIndex(switchnet.Out, e.Out)
		rows[portRound{pIn, k.round}] = append(rows[portRound{pIn, k.round}], j)
		rows[portRound{pOut, k.round}] = append(rows[portRound{pOut, k.round}], j)
	}
	for _, key := range sortedPortRounds(rows) {
		vars := rows[key]
		val := make([]float64, len(vars))
		for i := range vars {
			val[i] = 1
		}
		p.AddRow(vars, val, lp.LE, float64(inst.Switch.Cap(key.port)))
	}
	return p, vm
}
