package core

import (
	"fmt"
	"math"

	"flowsched/internal/lp"
	"flowsched/internal/switchnet"
)

// ARTResult is the outcome of SolveART (Theorem 1).
type ARTResult struct {
	// Schedule is feasible under port capacities scaled by CapFactor.
	Schedule *switchnet.Schedule
	// CapFactor is 1+c: the factor by which every port capacity was
	// augmented.
	CapFactor int
	// LPBound is the optimum of the interval LP (5)-(8), a lower bound on
	// the total response time of any (unaugmented) schedule.
	LPBound float64
	// PseudoTotal is the total response time of the intermediate
	// pseudo-schedule (Lemma 3.3); its cost is at most LPBound's schedule
	// counterpart.
	PseudoTotal int
	// WindowH is the conversion window length h used by the Theorem 1
	// batching; the response-time overhead per flow is at most 2h.
	WindowH int
	// Batches is the number of conversion windows that contained flows.
	Batches int
	// RoundingIterations and ForcedFixes mirror the PseudoSchedule's:
	// LP re-solves of the rounding (O(log n) by Lemma 3.5) and
	// degeneracy-safeguard fixes (0 in practice).
	RoundingIterations int
	ForcedFixes        int
	// LPIterations totals simplex pivots across all iterative-rounding
	// solves.
	LPIterations int
	// LP sums the solver's stage breakdown over the same solves.
	LP lp.Stats
}

// SolveART implements Theorem 1 for unit-demand flows: a schedule whose
// total response time is within an additive O(n log n / c) — hence a
// multiplicative (1 + O(log n)/c) — of the LP lower bound, using port
// capacities scaled by 1+c.
//
// The pipeline is: iterative LP rounding (Lemma 3.3) to a pseudo-schedule,
// its first LP crash-started from a greedy schedule (solveInitialIntervalLP);
// split the timeline into windows of length h; transform each window's
// flows through port replication; Birkhoff-von Neumann edge coloring into
// at most Delta matchings; execute 1+c matchings per round in the following
// window. h is grown geometrically from ceil(log2 n / c) until every
// window's matchings fit, which Lemma 3.7 guarantees at h = O(log n / c).
// LPBound is an optimum and does not depend on how the LP was solved; the
// schedule is rounded from the vertex the started solve ends at, so where
// that optimum is not unique it is one of several the theorem covers.
func SolveART(inst *switchnet.Instance, c int) (*ARTResult, error) {
	if c < 1 {
		return nil, fmt.Errorf("core: capacity augmentation c must be >= 1, got %d", c)
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if err := requireUnitDemands(inst); err != nil {
		return nil, err
	}
	n := inst.N()
	if n == 0 {
		return &ARTResult{Schedule: switchnet.NewSchedule(0), CapFactor: 1 + c}, nil
	}

	ws := getWorkspace()
	defer ws.put()
	ps := &ws.ps
	if err := ws.iterativeRound(inst, ps); err != nil {
		return nil, err
	}

	h0 := int(math.Ceil(math.Log2(float64(n+2)))) / c
	if h0 < 1 {
		h0 = 1
	}
	sched := switchnet.NewSchedule(n)
	var usedH, batches int
	for h := h0; ; h *= 2 {
		var ok bool
		if batches, ok = ws.convertPseudoSchedule(inst, ps, c, h, sched); ok {
			usedH = h
			break
		}
		if h > 4*(inst.CongestionHorizon()+n) {
			return nil, fmt.Errorf("core: conversion window exceeded %d without fitting", h)
		}
	}
	res := &ARTResult{
		Schedule:           sched,
		CapFactor:          1 + c,
		LPBound:            ps.LPValue,
		PseudoTotal:        ps.TotalResponse(inst),
		WindowH:            usedH,
		Batches:            batches,
		RoundingIterations: ps.RoundingIterations,
		ForcedFixes:        ps.ForcedFixes,
		LPIterations:       ps.LPIterations,
		LP:                 ps.LP,
	}
	if _, err := ws.checker.CheckAt(inst, sched, 1+c, 0); err != nil {
		return nil, fmt.Errorf("core: converted schedule invalid: %w", err)
	}
	return res, nil
}

// convertPseudoSchedule batches the pseudo-schedule into windows of length
// h and colors each batch into matchings executed in the following window
// with capacity (1+c)*c_p per round, writing every flow's round into sched.
// It returns the number of windows that held flows, and false, with sched
// partly written, if some batch needs more than h rounds (caller doubles h).
func (ws *workspace) convertPseudoSchedule(inst *switchnet.Instance, ps *PseudoSchedule, c, h int, sched *switchnet.Schedule) (int, bool) {
	// Count the flows of each window, at end[w+1], and place them window by
	// window, each window's in flow order.
	maxWin := 0
	for _, t := range ps.Round {
		maxWin = max(maxWin, t/h)
	}
	end := zeroed(ws.winEnd, maxWin+2) // where window w's next flow goes
	ws.winEnd = end
	for _, t := range ps.Round {
		end[t/h+1]++
	}
	for w := range maxWin + 1 {
		end[w+1] += end[w]
	}
	byWin := grow(ws.inWin, len(ps.Round))
	ws.inWin = byWin
	for f, t := range ps.Round {
		byWin[end[t/h]] = f
		end[t/h]++
	}
	// Window w's flows now end at end[w], where window w+1's begin.
	batches, lo := 0, 0
	for w := range maxWin + 1 {
		flows := byWin[lo:end[w]]
		lo = end[w]
		if len(flows) == 0 {
			continue
		}
		batches++
		edges := grow(ws.edges, len(flows))
		ws.edges = edges
		for i, f := range flows {
			edges[i] = [2]int{inst.Flows[f].In, inst.Flows[f].Out}
		}
		// Edge i's class (bvn.Decompose's classes, ungrouped) is the
		// matching it runs in.
		classes, numClasses := ws.colors.Color(edges, inst.Switch.InCaps, inst.Switch.OutCaps)
		need := (numClasses + c) / (1 + c) // ceil(classes/(1+c))
		if need > h {
			return 0, false
		}
		start := (w + 1) * h
		for i, f := range flows {
			sched.Round[f] = start + classes[i]/(1+c)
		}
	}
	return batches, true
}
