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
// run in rounds [r_e, r_e+rho). The windows share one backing array, each
// capped at its own end.
func ResponseWindows(inst *switchnet.Instance, rho int) Windows {
	var s windowStore
	return s.response(inst, rho)
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

// TimeConstrainedResult is the outcome of SolveTimeConstrained.
type TimeConstrainedResult struct {
	// Schedule assigns each flow one round within its window.
	Schedule *switchnet.Schedule
	// CapIncrease is the augmentation guaranteed by Theorem 3: the
	// schedule respects capacities c_p + CapIncrease.
	CapIncrease int
	// LPIterations counts simplex pivots, and LP is the solver's stage
	// breakdown of that solve. Both are zero when first fit placed every
	// flow and no LP was built.
	LPIterations int
	LP           lp.Stats
	// ForcedDrops mirrors rounding.Result.ForcedDrops (0 in practice).
	ForcedDrops int
}

// fitSchedule is the result where first fit placed every flow inside its
// window: the placement is a 0/1 point of LP (19)-(21), so the LP is
// feasible, and Theorem 3's rounding leaves an integral point as it is, so
// the placement is the schedule — one that also respects the original
// capacities. No LP is built for it.
func fitSchedule(inst *switchnet.Instance, win Windows, placed []int) *TimeConstrainedResult {
	sched := switchnet.NewSchedule(inst.N())
	for f, k := range placed {
		sched.Round[f] = win[f][k]
	}
	return &TimeConstrainedResult{Schedule: sched, CapIncrease: 2*inst.MaxDemand() - 1}
}

// SolveTimeConstrained implements Theorem 3: it either reports that the
// time-constrained instance has no schedule (ErrInfeasible), or returns a
// schedule that places every flow inside its window while exceeding each
// port capacity by at most 2*d_max-1. First fit by deadline runs first; LP
// (19)-(21) is built and solved only when it leaves a flow out.
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
	ws := getWorkspace()
	defer ws.put()
	m := &ws.lps[0]
	m.win = win
	placed := m.fit(inst, ws.deadlineOrder(win), 1)
	if placedAll(placed) {
		return fitSchedule(inst, win, placed), nil
	}
	m.build(inst, windowLayout)
	sol, err := m.solve()
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, ErrInfeasible
	default:
		return nil, fmt.Errorf("core: LP (19)-(21): status %v (%s)", sol.Status, describeLP(sol.Stats))
	}
	return ws.roundWindowLP(inst, m, sol)
}

// roundWindowLP is the rounding half of Theorem 3: from an optimal solution
// of m to a schedule inside the windows at capacities c_p + 2*d_max - 1.
func (ws *workspace) roundWindowLP(inst *switchnet.Instance, m *timeLP, sol *lp.Solution) (*TimeConstrainedResult, error) {
	dmax := inst.MaxDemand()
	// Build the rounding system exactly as in the proof of Theorem 3, on the
	// LP's own rows: assignment rows (the first, one per flow) guarded from
	// dropping below 1 (budget 1, scaled Delta = 2*d_max in the paper's
	// matrix form), capacity rows guarded from rising by 2*d_max or more.
	sys := &ws.sys
	sys.Reset(m.p.NumVars())
	for i := range m.p.NumRows() {
		idx, val, _, _ := m.p.Row(i)
		if i < inst.N() {
			sys.AddRow(idx, val, rounding.Lower, 1)
		} else {
			sys.AddRow(idx, val, rounding.Upper, float64(2*dmax))
		}
	}
	rres := sys.Round(sol.X)

	// Extract the schedule: the earliest chosen round per flow (extra
	// chosen rounds, if any, are discarded, which only lowers loads).
	sched := switchnet.NewSchedule(inst.N())
	j := 0
	for f, rounds := range m.win {
		for _, t := range rounds {
			if cur := sched.Round[f]; rres.X[j] >= 0.5 && (cur == switchnet.Unscheduled || t < cur) {
				sched.Round[f] = t
			}
			j++
		}
	}
	inc := 2*dmax - 1
	if _, err := ws.checker.CheckAt(inst, sched, 1, inc); err != nil {
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
	// TimeConstrainedResult is the schedule at Rho. Where first fit placed
	// every flow inside its Rho window it is that placement, at the original
	// capacities, and no LP was built for it: LP and LPIterations are zero.
	// Otherwise it is the rounding of the search's solve at Rho — the last
	// one it found feasible; no LP is solved a second time for it — and LP
	// and LPIterations are that solve's.
	*TimeConstrainedResult
	// Rho is the optimal maximum response time: the smallest rho whose
	// LP relaxation is feasible. It lower-bounds any capacity-respecting
	// schedule, and the returned schedule achieves it with augmentation.
	Rho int
	// SearchLP sums the solver's stage breakdown over every other
	// feasibility LP the search built (zero when it built none but the one
	// at Rho), so LP and SearchLP together count each solve once.
	SearchLP lp.Stats
	// LPs counts the feasibility LPs the search built, the one at Rho
	// included: a rho at which first fit places every flow builds none.
	LPs int
}

// MRTLowerBound returns the smallest rho for which LP (19)-(21) with
// windows [r_e, r_e+rho) is feasible. This is the lower bound the paper's
// Figure 7 compares heuristics against. Each rho of the search is answered
// by first fit where it places every flow, and by its LP, crash-started from
// that placement (see deadlineOrder), only where it does not: only the yes/no
// answer is used.
func MRTLowerBound(inst *switchnet.Instance) (int, error) {
	ws := getWorkspace()
	defer ws.put()
	s, err := ws.searchRho(inst)
	return s.rho, err
}

// rhoSearch is what searchRho found: the smallest feasible rho, the slot
// that holds, at rho, the windows and first fit's placement in them and,
// when the placement left a flow out, the LP with its optimal solution; the
// summed stats of the other LPs solved on the way, and how many LPs were
// built.
type rhoSearch struct {
	rho   int
	at    *timeLP
	built bool // whether at holds an LP solved at rho
	other lp.Stats
	lps   int
}

// schedule is Theorem 3's schedule at the search's rho.
func (ws *workspace) schedule(inst *switchnet.Instance, s *rhoSearch) (*TimeConstrainedResult, error) {
	if !s.built {
		return fitSchedule(inst, s.at.win, s.at.placed), nil
	}
	return ws.roundWindowLP(inst, s.at, &s.at.sol)
}

// searchRho finds the smallest rho whose LP (19)-(21) is feasible, in ws's
// two LP slots: the one s.at holds the answer at the search's upper end,
// the other the rho being probed, and a feasible probe swaps them.
func (ws *workspace) searchRho(inst *switchnet.Instance) (rhoSearch, error) {
	var s rhoSearch
	if inst.N() == 0 {
		return s, nil
	}
	// The deadlines r_e+rho-1 of the windows order the flows as their
	// releases do, whatever rho is.
	order := ws.releaseOrder(inst)
	// feasible answers rho by first fit, or by the LP where first fit leaves
	// a flow out, in the slot s.at does not hold; a feasible rho becomes
	// what s.at holds, which is thereby always the answer at the search's
	// upper end.
	feasible := func(rho int) (bool, error) {
		probe := &ws.lps[0]
		if probe == s.at {
			probe = &ws.lps[1]
		}
		probe.win = probe.wins.response(inst, rho)
		built := !placedAll(probe.fit(inst, order, 1))
		if built {
			probe.build(inst, windowLayout)
			s.lps++
			sol, err := probe.solve()
			switch {
			case err != nil:
				return false, fmt.Errorf("core: LP (19)-(21) at rho %d: %w", rho, err)
			case sol.Status == lp.Infeasible:
				s.other.Add(sol.Stats)
				return false, nil
			case sol.Status != lp.Optimal:
				return false, fmt.Errorf("core: LP (19)-(21) at rho %d: status %v (%s)",
					rho, sol.Status, describeLP(sol.Stats))
			}
		}
		if s.built {
			s.other.Add(s.at.sol.Stats)
		}
		s.at, s.built = probe, built
		return true, nil
	}
	// The volume bound of TrivialMRTLowerBound is valid for the LP too
	// (it only compares demand mass against capacity mass), so the search
	// can start there; exponential search finds a feasible upper end,
	// then binary search closes the gap.
	lo := ws.trivialMRTLowerBound(inst)
	if lo < 1 {
		lo = 1
	}
	hi := lo
	limit := inst.CongestionHorizon()*4 + 16
	for {
		ok, err := feasible(hi)
		if err != nil {
			return s, err
		}
		if ok {
			break
		}
		lo = hi + 1
		hi *= 2
		if hi > limit {
			return s, fmt.Errorf("core: no feasible rho up to %d", hi)
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		ok, err := feasible(mid)
		if err != nil {
			return s, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s.rho = hi
	return s, nil
}

// SolveMRT implements the FS-MRT pipeline of Section 4.2: binary search on
// the response bound rho, then Theorem 3 rounding at the optimum. The
// returned schedule has maximum response time Rho (the LP optimum, hence
// optimal) using port capacities c_p + 2*d_max - 1. The schedule is the one
// the search found at Rho: first fit's placement where it placed every flow,
// which is the LP's 0/1 point and needs no rounding, and otherwise the
// rounding of the search's solve — Theorem 3 holds at any vertex of the LP,
// so the crash-started one serves.
func SolveMRT(inst *switchnet.Instance) (*MRTResult, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if inst.N() == 0 {
		return &MRTResult{TimeConstrainedResult: &TimeConstrainedResult{Schedule: switchnet.NewSchedule(0)}, Rho: 0}, nil
	}
	ws := getWorkspace()
	defer ws.put()
	s, err := ws.searchRho(inst)
	if err != nil {
		return nil, err
	}
	res, err := ws.schedule(inst, &s)
	if err != nil {
		return nil, err
	}
	if got := res.Schedule.MaxResponse(inst); got > s.rho {
		return nil, fmt.Errorf("core: rounded schedule has max response %d > rho %d", got, s.rho)
	}
	return &MRTResult{TimeConstrainedResult: res, Rho: s.rho, SearchLP: s.other, LPs: s.lps}, nil
}
