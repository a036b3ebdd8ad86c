package core

import (
	"fmt"

	"flowsched/internal/lp"
	"flowsched/internal/rounding"
	"flowsched/internal/switchnet"
)

// Windows gives, for each flow, the set of rounds in which it may be
// scheduled (the active rounds R(e) of Time-Constrained Flow Scheduling,
// Section 4.2). Rounds may be non-contiguous.
type Windows [][]int

// ResponseWindows builds the windows of the FS-MRT reduction: flow e may
// run in rounds [r_e, r_e+rho).
func ResponseWindows(inst *switchnet.Instance, rho int) Windows {
	w := make(Windows, inst.N())
	for f, e := range inst.Flows {
		rounds := make([]int, rho)
		for i := 0; i < rho; i++ {
			rounds[i] = e.Release + i
		}
		w[f] = rounds
	}
	return w
}

// DeadlineWindows builds windows for the deadline model of Remark 4.2:
// flow e may run in rounds [r_e, deadline_e] (inclusive).
func DeadlineWindows(inst *switchnet.Instance, deadline []int) (Windows, error) {
	if len(deadline) != inst.N() {
		return nil, fmt.Errorf("core: %d deadlines for %d flows", len(deadline), inst.N())
	}
	w := make(Windows, inst.N())
	for f, e := range inst.Flows {
		if deadline[f] < e.Release {
			return nil, fmt.Errorf("core: flow %d deadline %d before release %d", f, deadline[f], e.Release)
		}
		for t := e.Release; t <= deadline[f]; t++ {
			w[f] = append(w[f], t)
		}
	}
	return w, nil
}

// timeConstrainedLP builds LP (19)-(21): variables x_{e,t} for t in R(e),
// an equality row per flow and a capacity row per (port, round).
func timeConstrainedLP(inst *switchnet.Instance, win Windows) (*lp.Problem, *varMap) {
	vm := newVarMap()
	for f := range inst.Flows {
		for _, t := range win[f] {
			vm.add(f, t)
		}
	}
	p := lp.NewProblem(vm.len())
	for j := 0; j < vm.len(); j++ {
		p.SetBounds(j, 0, 1)
	}
	// Constraint (20): each flow fully scheduled.
	for f := range inst.Flows {
		idx := make([]int, 0, len(win[f]))
		val := make([]float64, 0, len(win[f]))
		for _, t := range win[f] {
			idx = append(idx, vm.byK[varKey{f, t}])
			val = append(val, 1)
		}
		p.AddRow(idx, val, lp.EQ, 1)
	}
	// Constraint (19): port capacity per round, one row per (port, round)
	// that some window touches, in deterministic order.
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
		for i, j := range vars {
			val[i] = float64(inst.Flows[vm.key(j).flow].Demand)
		}
		p.AddRow(vars, val, lp.LE, float64(inst.Switch.Cap(key.port)))
	}
	return p, vm
}

// TimeConstrainedResult is the outcome of SolveTimeConstrained.
type TimeConstrainedResult struct {
	// Schedule assigns each flow one round within its window.
	Schedule *switchnet.Schedule
	// CapIncrease is the augmentation guaranteed by Theorem 3: the
	// schedule respects capacities c_p + CapIncrease.
	CapIncrease int
	// LPIterations counts simplex pivots.
	LPIterations int
	// LP is the solver's stage breakdown of that solve.
	LP lp.Stats
	// ForcedDrops mirrors rounding.Result.ForcedDrops (0 in practice).
	ForcedDrops int
}

// SolveTimeConstrained implements Theorem 3: it either reports that the
// time-constrained instance has no schedule (ErrInfeasible), or returns a
// schedule that places every flow inside its window while exceeding each
// port capacity by at most 2*d_max-1.
func SolveTimeConstrained(inst *switchnet.Instance, win Windows) (*TimeConstrainedResult, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if inst.N() == 0 {
		return &TimeConstrainedResult{Schedule: switchnet.NewSchedule(0)}, nil
	}
	if len(win) != inst.N() {
		return nil, fmt.Errorf("core: %d windows for %d flows", len(win), inst.N())
	}
	for f, rounds := range win {
		if len(rounds) == 0 {
			return nil, fmt.Errorf("core: flow %d has an empty window", f)
		}
		for _, t := range rounds {
			if t < inst.Flows[f].Release {
				return nil, fmt.Errorf("core: flow %d window contains round %d before release %d",
					f, t, inst.Flows[f].Release)
			}
		}
	}
	p, vm := timeConstrainedLP(inst, win)
	sol, err := p.Solve()
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, ErrInfeasible
	default:
		return nil, fmt.Errorf("core: LP solve ended with status %v", sol.Status)
	}

	dmax := inst.MaxDemand()
	// Build the rounding system exactly as in the proof of Theorem 3:
	// assignment rows guarded from dropping below 1 (budget 1, scaled
	// Delta = 2*d_max in the paper's matrix form), capacity rows guarded
	// from rising by 2*d_max or more.
	sys := rounding.NewSystem(vm.len())
	for f := range inst.Flows {
		idx := make([]int, 0, len(win[f]))
		coef := make([]float64, 0, len(win[f]))
		for _, t := range win[f] {
			idx = append(idx, vm.byK[varKey{f, t}])
			coef = append(coef, 1)
		}
		sys.AddRow(idx, coef, rounding.Lower, 1)
	}
	capRows := make(map[portRound][]int)
	for j := 0; j < vm.len(); j++ {
		k := vm.key(j)
		e := inst.Flows[k.flow]
		pIn := inst.Switch.PortIndex(switchnet.In, e.In)
		pOut := inst.Switch.PortIndex(switchnet.Out, e.Out)
		capRows[portRound{pIn, k.round}] = append(capRows[portRound{pIn, k.round}], j)
		capRows[portRound{pOut, k.round}] = append(capRows[portRound{pOut, k.round}], j)
	}
	for _, key := range sortedPortRounds(capRows) {
		vars := capRows[key]
		coef := make([]float64, len(vars))
		for i, j := range vars {
			coef[i] = float64(inst.Flows[vm.key(j).flow].Demand)
		}
		sys.AddRow(vars, coef, rounding.Upper, float64(2*dmax))
	}
	rres := sys.Round(sol.X)

	// Extract the schedule: the earliest chosen round per flow (extra
	// chosen rounds, if any, are discarded, which only lowers loads).
	sched := switchnet.NewSchedule(inst.N())
	for j, v := range rres.X {
		if v < 0.5 {
			continue
		}
		k := vm.key(j)
		if cur := sched.Round[k.flow]; cur == switchnet.Unscheduled || k.round < cur {
			sched.Round[k.flow] = k.round
		}
	}
	for f, t := range sched.Round {
		if t == switchnet.Unscheduled {
			return nil, fmt.Errorf("core: rounding left flow %d unscheduled", f)
		}
	}
	inc := 2*dmax - 1
	if err := sched.Validate(inst, switchnet.AddCaps(inst.Switch.Caps(), inc)); err != nil {
		return nil, fmt.Errorf("core: rounded schedule invalid: %w", err)
	}
	return &TimeConstrainedResult{
		Schedule:     sched,
		CapIncrease:  inc,
		LPIterations: sol.Iterations,
		LP:           sol.Stats,
		ForcedDrops:  rres.ForcedDrops,
	}, nil
}

// MRTResult is the outcome of SolveMRT.
type MRTResult struct {
	*TimeConstrainedResult
	// Rho is the optimal maximum response time: the smallest rho whose
	// LP relaxation is feasible. It lower-bounds any capacity-respecting
	// schedule, and the returned schedule achieves it with augmentation.
	Rho int
	// SearchLP sums the solver's stage breakdown over the feasibility LPs
	// of the search for Rho; the final solve's is the embedded LP.
	SearchLP lp.Stats
}

// MRTLowerBound returns the smallest rho for which LP (19)-(21) with
// windows [r_e, r_e+rho) is feasible. This is the lower bound the paper's
// Figure 7 compares heuristics against.
func MRTLowerBound(inst *switchnet.Instance) (int, error) {
	rho, _, err := searchRho(inst)
	return rho, err
}

// searchRho is MRTLowerBound with the summed stats of the LPs it solved.
func searchRho(inst *switchnet.Instance) (int, lp.Stats, error) {
	var search lp.Stats
	if inst.N() == 0 {
		return 0, search, nil
	}
	feasible := func(rho int) (bool, error) {
		p, _ := timeConstrainedLP(inst, ResponseWindows(inst, rho))
		sol, err := p.Solve()
		if err != nil {
			return false, err
		}
		search.Add(sol.Stats)
		switch sol.Status {
		case lp.Optimal:
			return true, nil
		case lp.Infeasible:
			return false, nil
		default:
			return false, fmt.Errorf("core: LP status %v during binary search", sol.Status)
		}
	}
	// The volume bound of TrivialMRTLowerBound is valid for the LP too
	// (it only compares demand mass against capacity mass), so the search
	// can start there; exponential search finds a feasible upper end,
	// then binary search closes the gap.
	lo := TrivialMRTLowerBound(inst)
	if lo < 1 {
		lo = 1
	}
	hi := lo
	for {
		ok, err := feasible(hi)
		if err != nil {
			return 0, search, err
		}
		if ok {
			break
		}
		lo = hi + 1
		hi *= 2
		if hi > inst.CongestionHorizon()*4+16 {
			return 0, search, fmt.Errorf("core: no feasible rho up to %d", hi)
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		ok, err := feasible(mid)
		if err != nil {
			return 0, search, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi, search, nil
}

// SolveMRT implements the FS-MRT pipeline of Section 4.2: binary search on
// the response bound rho, then Theorem 3 rounding at the optimum. The
// returned schedule has maximum response time Rho (the LP optimum, hence
// optimal) using port capacities c_p + 2*d_max - 1.
func SolveMRT(inst *switchnet.Instance) (*MRTResult, error) {
	rho, search, err := searchRho(inst)
	if err != nil {
		return nil, err
	}
	if inst.N() == 0 {
		return &MRTResult{TimeConstrainedResult: &TimeConstrainedResult{Schedule: switchnet.NewSchedule(0)}, Rho: 0}, nil
	}
	res, err := SolveTimeConstrained(inst, ResponseWindows(inst, rho))
	if err != nil {
		return nil, err
	}
	if got := res.Schedule.MaxResponse(inst); got > rho {
		return nil, fmt.Errorf("core: rounded schedule has max response %d > rho %d", got, rho)
	}
	return &MRTResult{TimeConstrainedResult: res, Rho: rho, SearchLP: search}, nil
}
