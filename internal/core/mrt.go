package core

import (
	"fmt"
	"slices"

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

// windowLP is LP (19)-(21) over a window family, with the rows it was
// built from (Theorem 3's rounding system has the same ones) and the point
// its solve starts from.
type windowLP struct {
	p    *lp.Problem
	ix   *timeIndex
	caps portRows
	coef []float64 // d_e per entry of caps.vars
	// start is x_et = 1 where firstFit places flow e, taking the flows by
	// the last round of their windows. Only whether the LP is feasible
	// and Theorem 3's guarantee — which holds at any vertex — are used,
	// so the solve may start there: with every flow placed the start is
	// the answer and comes back unfactored, otherwise phase 1 works on the
	// unplaced flows only.
	start []float64
}

// timeConstrainedLP builds LP (19)-(21): variables x_{e,t} for t in R(e),
// an equality row per flow and a capacity row per (port, round) that some
// window touches.
func timeConstrainedLP(inst *switchnet.Instance, win Windows) *windowLP {
	ix := newTimeIndex(inst, win, 1)
	m := &windowLP{p: lp.NewProblem(ix.len()), ix: ix, caps: newPortRows(inst, ix)}
	for j := range ix.ident {
		m.p.SetBounds(j, 0, 1)
	}
	// Constraint (20): each flow fully scheduled.
	deadline := make([]int, inst.N())
	for f := range inst.Flows {
		a, b := ix.off[f], ix.off[f+1]
		m.p.AddRow(ix.ident[a:b], ix.ones[a:b], lp.EQ, 1)
		deadline[f] = slices.Max(win[f])
	}
	// Constraint (19): port capacity per round.
	m.coef = make([]float64, len(m.caps.vars))
	for k, j := range m.caps.vars {
		m.coef[k] = float64(inst.Flows[ix.flow[j]].Demand)
	}
	for k, port := range m.caps.port {
		a, b := m.caps.start[k], m.caps.start[k+1]
		m.p.AddRow(m.caps.vars[a:b], m.coef[a:b], lp.LE, float64(inst.Switch.Cap(port)))
	}
	m.start = unitStart(inst, orderBy(deadline), ix)
	return m
}

// solve runs the crash-started solve of the LP.
func (m *windowLP) solve() (*lp.Solution, error) {
	return m.p.SolveWith(lp.SolveOptions{Start: m.start})
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
	m := timeConstrainedLP(inst, win)
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
	return roundWindowLP(inst, m, sol)
}

// roundWindowLP is the rounding half of Theorem 3: from an optimal solution
// of m to a schedule inside the windows at capacities c_p + 2*d_max - 1.
func roundWindowLP(inst *switchnet.Instance, m *windowLP, sol *lp.Solution) (*TimeConstrainedResult, error) {
	ix := m.ix
	dmax := inst.MaxDemand()
	// Build the rounding system exactly as in the proof of Theorem 3:
	// assignment rows guarded from dropping below 1 (budget 1, scaled
	// Delta = 2*d_max in the paper's matrix form), capacity rows guarded
	// from rising by 2*d_max or more.
	sys := rounding.NewSystem(ix.len())
	for f := range inst.Flows {
		a, b := ix.off[f], ix.off[f+1]
		sys.AddRow(ix.ident[a:b], ix.ones[a:b], rounding.Lower, 1)
	}
	for k := range m.caps.port {
		a, b := m.caps.start[k], m.caps.start[k+1]
		sys.AddRow(m.caps.vars[a:b], m.coef[a:b], rounding.Upper, float64(2*dmax))
	}
	rres := sys.Round(sol.X)

	// Extract the schedule: the earliest chosen round per flow (extra
	// chosen rounds, if any, are discarded, which only lowers loads).
	sched := switchnet.NewSchedule(inst.N())
	for j, v := range rres.X {
		if v < 0.5 {
			continue
		}
		f, t := ix.flow[j], ix.round[j]
		if cur := sched.Round[f]; cur == switchnet.Unscheduled || t < cur {
			sched.Round[f] = t
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
	// TimeConstrainedResult is the rounding at Rho. Its LP and LPIterations
	// are the search's solve at Rho — the last one it found feasible, whose
	// solution is the one rounded; no LP is solved a second time for it.
	*TimeConstrainedResult
	// Rho is the optimal maximum response time: the smallest rho whose
	// LP relaxation is feasible. It lower-bounds any capacity-respecting
	// schedule, and the returned schedule achieves it with augmentation.
	Rho int
	// SearchLP sums the solver's stage breakdown over every other
	// feasibility LP of the search for Rho (zero when the volume bound the
	// search starts from is already Rho), so LP and SearchLP together
	// count each solve once.
	SearchLP lp.Stats
}

// MRTLowerBound returns the smallest rho for which LP (19)-(21) with
// windows [r_e, r_e+rho) is feasible. This is the lower bound the paper's
// Figure 7 compares heuristics against. Each feasibility LP of the search
// is crash-started from a first-fit schedule (see windowLP): only its
// yes/no answer is used.
func MRTLowerBound(inst *switchnet.Instance) (int, error) {
	s, err := searchRho(inst)
	return s.rho, err
}

// rhoSearch is what searchRho found: the smallest feasible rho, the LP at
// rho with its optimal solution, and the summed stats of the other LPs
// solved on the way.
type rhoSearch struct {
	rho   int
	m     *windowLP
	sol   *lp.Solution
	other lp.Stats
}

// searchRho finds the smallest rho whose LP (19)-(21) is feasible.
func searchRho(inst *switchnet.Instance) (rhoSearch, error) {
	var s rhoSearch
	if inst.N() == 0 {
		return s, nil
	}
	// feasible solves the LP at rho; a feasible one replaces the LP kept
	// in s, which is thereby always the one at the search's upper end.
	feasible := func(rho int) (bool, error) {
		m := timeConstrainedLP(inst, ResponseWindows(inst, rho))
		sol, err := m.solve()
		if err != nil {
			return false, fmt.Errorf("core: LP (19)-(21) at rho %d: %w", rho, err)
		}
		switch sol.Status {
		case lp.Optimal:
			if s.sol != nil {
				s.other.Add(s.sol.Stats)
			}
			s.m, s.sol = m, sol
			return true, nil
		case lp.Infeasible:
			s.other.Add(sol.Stats)
			return false, nil
		default:
			return false, fmt.Errorf("core: LP (19)-(21) at rho %d: status %v (%s)",
				rho, sol.Status, describeLP(sol.Stats))
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
			return s, err
		}
		if ok {
			break
		}
		lo = hi + 1
		hi *= 2
		if hi > inst.CongestionHorizon()*4+16 {
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
// optimal) using port capacities c_p + 2*d_max - 1. The solution rounded
// is the one the search found at Rho; Theorem 3 holds at any vertex of the
// LP, so the crash-started one serves.
func SolveMRT(inst *switchnet.Instance) (*MRTResult, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if inst.N() == 0 {
		return &MRTResult{TimeConstrainedResult: &TimeConstrainedResult{Schedule: switchnet.NewSchedule(0)}, Rho: 0}, nil
	}
	s, err := searchRho(inst)
	if err != nil {
		return nil, err
	}
	res, err := roundWindowLP(inst, s.m, s.sol)
	if err != nil {
		return nil, err
	}
	if got := res.Schedule.MaxResponse(inst); got > s.rho {
		return nil, fmt.Errorf("core: rounded schedule has max response %d > rho %d", got, s.rho)
	}
	return &MRTResult{TimeConstrainedResult: res, Rho: s.rho, SearchLP: s.other}, nil
}
